package dls

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// New returns a fresh Algorithm for the given name, as used by the XML
// specification's algorithm attribute (e.g. algorithm="rumr"). Recognized
// names:
//
//	simple-N     SIMPLE-n static chunking (e.g. "simple-1", "simple-5")
//	umr          Uniform Multi-Round
//	wf           Weighted Factoring (adaptive)
//	wf-static    Weighted Factoring without online adaptation
//	rumr         RUMR with online γ discovery
//	adaptive-rumr  RUMR that re-plans after each round (the paper's §6
//	             future-work proposal; alias "arumr")
//	fixed-rumr   Fixed-RUMR (80/20 split)
//	one-round    classical one-installment baseline
//	gss          Guided Self-Scheduling (§2.2 ancestry)
//	tss          Trapezoid Self-Scheduling (linear decrease)
//	factoring-plain  unweighted Factoring [22]
//	mi-M         fixed-M multi-installment with linear costs [8]
//
// Names are case-insensitive; "factoring" and "weighted-factoring" are
// accepted aliases for "wf".
func New(name string) (Algorithm, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	switch {
	case strings.HasPrefix(n, "simple-"):
		k, err := strconv.Atoi(strings.TrimPrefix(n, "simple-"))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("dls: bad SIMPLE-n spec %q", name)
		}
		return NewSimple(k), nil
	case n == "simple":
		return NewSimple(1), nil
	case n == "umr":
		return NewUMR(), nil
	case n == "wf" || n == "factoring" || n == "weighted-factoring":
		return NewWeightedFactoring(), nil
	case n == "wf-static":
		wf := NewWeightedFactoring()
		wf.Adaptive = false
		return wf, nil
	case n == "rumr":
		return NewRUMR(), nil
	case n == "adaptive-rumr" || n == "arumr":
		return NewAdaptiveRUMR(), nil
	case n == "fixed-rumr" || n == "fixedrumr":
		return NewFixedRUMR(), nil
	case n == "one-round" || n == "oneround":
		return NewOneRound(), nil
	case n == "gss":
		return NewGSS(), nil
	case n == "tss":
		return NewTSS(), nil
	case n == "factoring-plain" || n == "plain-factoring":
		return NewPlainFactoring(), nil
	case strings.HasPrefix(n, "mi-"):
		m, err := strconv.Atoi(strings.TrimPrefix(n, "mi-"))
		if err != nil || m < 1 {
			return nil, fmt.Errorf("dls: bad multi-installment spec %q", name)
		}
		return NewMultiInstallment(m), nil
	default:
		return nil, fmt.Errorf("dls: unknown algorithm %q (known: %s)", name, strings.Join(Names(), ", "))
	}
}

// Names lists the canonical algorithm names accepted by New.
func Names() []string {
	names := []string{
		"simple-1", "simple-5", "umr", "wf", "wf-static",
		"rumr", "adaptive-rumr", "fixed-rumr",
		"one-round", "gss", "tss", "factoring-plain", "mi-3",
	}
	sort.Strings(names)
	return names
}

// PaperSet returns fresh instances of the six algorithm variants the
// paper's evaluation compares, in the order the figures list them. The
// six and the slice that names them are one allocation (paperSet); no
// two calls share a planner.
func PaperSet() []Algorithm {
	// The fields the constructors set, set in place: copying whole
	// planners in from New* values costs more than the allocation saves.
	s := &paperSet{
		simple1: Simple{N: 1}, simple5: Simple{N: 5},
		wf: WeightedFactoring{Adaptive: true}, rumr: RUMR{KnownGamma: -1},
	}
	s.algs = [...]Algorithm{&s.simple1, &s.simple5, &s.umr, &s.wf, &s.rumr, &s.fixedRUMR}
	return s.algs[:]
}

// paperSet is the storage of one PaperSet call. The experiments build a
// set per run and keep one planner of it, which keeps the whole block
// (about a kilobyte) alive for that run.
type paperSet struct {
	algs             [6]Algorithm
	simple1, simple5 Simple
	umr              UMR
	wf               WeightedFactoring
	rumr             RUMR
	fixedRUMR        FixedRUMR
}
