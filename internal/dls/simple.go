package dls

import (
	"fmt"
	"strconv"
)

// Simple is the SIMPLE-n "static chunking" baseline (§3.6): the input is
// divided uniformly among the workers — equal shares regardless of worker
// speed — and each worker's share is divided into n equal chunks. No
// probing is used. This is what APST users did for divisible loads before
// APST-DV, and the paper shows it is always inefficient (28% / 18% slower
// than the best algorithm on average for n=1 / n=5).
//
// Dispatch order interleaves workers round-robin (chunk k of every worker
// before chunk k+1 of any), which is how APST would naturally queue the
// user's pre-divided tasks and gives SIMPLE-n its best chance at
// overlapping communication with computation.
type Simple struct {
	// N is the number of chunks per worker (the paper uses 1 and 5).
	N int

	sequencePlayer
}

// NewSimple returns a SIMPLE-n policy. n must be at least 1.
func NewSimple(n int) *Simple { return &Simple{N: n} }

// simpleNames holds "simple-n" for every n up to 256, built once: the
// engine names the algorithm on every run, and every run builds a fresh
// Simple, so a name built per value would still be formatted per run.
var simpleNames = func() (names [257]string) {
	for n := range names {
		names[n] = "simple-" + strconv.Itoa(n)
	}
	return names
}()

// Name implements Algorithm.
func (s *Simple) Name() string {
	if s.N >= 0 && s.N < len(simpleNames) {
		return simpleNames[s.N]
	}
	return fmt.Sprintf("simple-%d", s.N)
}

// UsesProbing implements Algorithm: static chunking needs no resource
// information.
func (s *Simple) UsesProbing() bool { return false }

// Plan implements Algorithm.
func (s *Simple) Plan(p Plan) error {
	if s.N < 1 {
		return fmt.Errorf("simple: chunks per worker must be >= 1, got %d", s.N)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	workers := len(p.Workers)
	chunk := p.TotalLoad / float64(workers*s.N)
	seq := make([]Decision, 0, workers*s.N)
	for round := 0; round < s.N; round++ {
		for w := 0; w < workers; w++ {
			seq = append(seq, Decision{Worker: w, Size: chunk})
		}
	}
	s.reset(seq)
	return nil
}
