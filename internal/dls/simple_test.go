package dls

import (
	"fmt"
	"testing"
)

// TestSimpleName checks the name table and the formatted names past it,
// across both of its ends, and that a name from the table costs no
// allocation.
func TestSimpleName(t *testing.T) {
	for _, n := range []int{-3, -1, 0, 1, 5, 50, 250, 255, 256, 257, 1000} {
		if got, want := NewSimple(n).Name(), fmt.Sprintf("simple-%d", n); got != want {
			t.Errorf("NewSimple(%d).Name() = %q, want %q", n, got, want)
		}
	}
	s := NewSimple(250)
	if allocs := testing.AllocsPerRun(10, func() { _ = s.Name() }); allocs != 0 {
		t.Errorf("NewSimple(250).Name() allocated %v times; want 0", allocs)
	}
}

func TestSimpleNoProbing(t *testing.T) {
	if NewSimple(1).UsesProbing() {
		t.Error("SIMPLE-n must not probe (§3.6)")
	}
}

func TestSimpleEqualSharesRegardlessOfSpeed(t *testing.T) {
	// "Uniformly divides the input among the workers": the slow worker
	// gets the same share — the design flaw behind the case study's 52%
	// penalty.
	ests := das2Estimates(4)
	ests[0].UnitComp *= 3 // much slower worker
	s := NewSimple(1)
	if err := s.Plan(Plan{TotalLoad: 400, MinChunk: 1, Workers: ests}); err != nil {
		t.Fatal(err)
	}
	if len(s.seq) != 4 {
		t.Fatalf("got %d chunks, want 4", len(s.seq))
	}
	for _, d := range s.seq {
		if !nearly(d.Size, 100, 1e-12) {
			t.Errorf("worker %d gets %.1f, want uniform 100", d.Worker, d.Size)
		}
	}
}

func TestSimpleNChunksPerWorker(t *testing.T) {
	s := NewSimple(5)
	if err := s.Plan(Plan{TotalLoad: 800, MinChunk: 1, Workers: das2Estimates(4)}); err != nil {
		t.Fatal(err)
	}
	if len(s.seq) != 20 {
		t.Fatalf("got %d chunks, want 20", len(s.seq))
	}
	counts := map[int]int{}
	for _, d := range s.seq {
		counts[d.Worker]++
		if !nearly(d.Size, 40, 1e-12) {
			t.Errorf("chunk size %.1f, want 40", d.Size)
		}
	}
	for w, c := range counts {
		if c != 5 {
			t.Errorf("worker %d got %d chunks, want 5", w, c)
		}
	}
}

func TestSimpleRoundRobinInterleave(t *testing.T) {
	// Chunk k of every worker precedes chunk k+1 of any worker, giving
	// SIMPLE-n its comm/comp overlap.
	s := NewSimple(3)
	if err := s.Plan(Plan{TotalLoad: 120, MinChunk: 1, Workers: das2Estimates(2)}); err != nil {
		t.Fatal(err)
	}
	wantWorkers := []int{0, 1, 0, 1, 0, 1}
	for i, d := range s.seq {
		if d.Worker != wantWorkers[i] {
			t.Fatalf("dispatch order %v not round-robin", s.seq)
		}
	}
}

func TestSimpleRejectsBadN(t *testing.T) {
	s := NewSimple(0)
	if err := s.Plan(Plan{TotalLoad: 100, MinChunk: 1, Workers: das2Estimates(2)}); err == nil {
		t.Error("SIMPLE-0 accepted")
	}
}

func TestSimpleMakespanWorseThanUMROnDAS2(t *testing.T) {
	// The paper's headline: static chunking always loses to UMR on a
	// platform with significant start-up costs (γ=0 here, so the fake
	// engine is exact).
	ests := das2Estimates(16)
	s1 := newFakeEngine(ests, 240000, 10)
	if err := s1.run(NewSimple(1)); err != nil {
		t.Fatal(err)
	}
	umr := newFakeEngine(ests, 240000, 10)
	if err := umr.run(NewUMR()); err != nil {
		t.Fatal(err)
	}
	if s1.makespan < umr.makespan*1.15 {
		t.Errorf("SIMPLE-1 (%.0f) not clearly worse than UMR (%.0f)", s1.makespan, umr.makespan)
	}
}

func TestSimple5BetterThanSimple1(t *testing.T) {
	ests := das2Estimates(16)
	s1 := newFakeEngine(ests, 240000, 10)
	if err := s1.run(NewSimple(1)); err != nil {
		t.Fatal(err)
	}
	s5 := newFakeEngine(ests, 240000, 10)
	if err := s5.run(NewSimple(5)); err != nil {
		t.Fatal(err)
	}
	if s5.makespan >= s1.makespan {
		t.Errorf("SIMPLE-5 (%.0f) should beat SIMPLE-1 (%.0f) via pipelining", s5.makespan, s1.makespan)
	}
}
