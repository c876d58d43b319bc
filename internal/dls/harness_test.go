package dls

import (
	"fmt"
	"math"
	"testing"

	"apstdv/internal/model"
)

// fakeEngine drives an Algorithm through a complete execution against
// the estimated cost model with no noise — a deterministic, in-package
// stand-in for the real engine that lets algorithm tests check dispatch
// totals, ordering, and timing without the simulator.
type fakeEngine struct {
	ests     []model.Estimate
	total    float64
	minChunk float64

	remaining float64
	pending   []float64
	pchunks   []int
	inflight  int

	linkFree float64
	compFree []float64
	now      float64

	// completion queue: (time, worker, size, sendStart, sendEnd, compStart).
	events []fakeEvent

	dispatches []Decision
	makespan   float64
}

type fakeEvent struct {
	at                 float64
	worker             int
	size               float64
	sendStart, sendEnd float64
	compStart          float64
}

func newFakeEngine(ests []model.Estimate, total, minChunk float64) *fakeEngine {
	return &fakeEngine{
		ests:      ests,
		total:     total,
		minChunk:  minChunk,
		remaining: total,
		pending:   make([]float64, len(ests)),
		pchunks:   make([]int, len(ests)),
		compFree:  make([]float64, len(ests)),
	}
}

func (f *fakeEngine) state() State {
	return State{
		Now:           f.now,
		Remaining:     f.remaining,
		Pending:       f.pending,
		PendingChunks: f.pchunks,
		InFlight:      f.inflight,
		Completed:     f.total - f.remaining - sumPending(f.pending),
	}
}

func sumPending(p []float64) float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}

// maxFakeDispatches turns an algorithm that would never finish into an
// error. The most any registered algorithm cuts is weighted factoring's
// fifty thousand chunks for a million units with no granularity floor.
const maxFakeDispatches = 1 << 20

// run plans and executes the algorithm to completion. It returns an
// error if the algorithm stalls, dispatches out of range or never ends.
func (f *fakeEngine) run(alg Algorithm) error {
	if err := alg.Plan(Plan{TotalLoad: f.total, MinChunk: f.minChunk, Workers: f.ests}); err != nil {
		return err
	}
	for f.remaining > 1e-9 || f.inflight > 0 {
		progressed := false
		// Dispatch while the algorithm offers work (the link is always
		// free at decision time in this serialized model).
		if f.remaining > 1e-9 {
			d, ok := alg.Next(f.state())
			if ok {
				if d.Worker < 0 || d.Worker >= len(f.ests) {
					return fmt.Errorf("dispatch to invalid worker %d", d.Worker)
				}
				if !(d.Size > 0) || math.IsInf(d.Size, 0) {
					return fmt.Errorf("dispatch size %g is not positive and finite", d.Size)
				}
				if len(f.dispatches) == maxFakeDispatches {
					return fmt.Errorf("no end in sight: %d dispatches and %.6g still remaining", maxFakeDispatches, f.remaining)
				}
				size := d.Size
				if size > f.remaining {
					size = f.remaining
				}
				f.dispatch(alg, d.Worker, d.Size, size)
				progressed = true
			}
		}
		if !progressed {
			if f.inflight == 0 {
				return fmt.Errorf("stalled with %.6g remaining", f.remaining)
			}
			f.completeNext(alg)
		}
	}
	// Drain outstanding completions for the final makespan.
	for f.inflight > 0 {
		f.completeNext(alg)
	}
	return nil
}

func (f *fakeEngine) dispatch(alg Algorithm, w int, requested, size float64) {
	e := f.ests[w]
	sendStart := f.linkFree
	if f.now > sendStart {
		sendStart = f.now
	}
	sendEnd := sendStart + e.CommLatency + size*e.UnitComm
	f.linkFree = sendEnd
	f.now = sendEnd
	compStart := sendEnd
	if f.compFree[w] > compStart {
		compStart = f.compFree[w]
	}
	compEnd := compStart + e.CompLatency + size*e.UnitComp
	f.compFree[w] = compEnd

	f.remaining -= size
	f.pending[w] += size
	f.pchunks[w]++
	f.inflight++
	f.dispatches = append(f.dispatches, Decision{Worker: w, Size: size})
	alg.Dispatched(w, requested, size)

	f.events = append(f.events, fakeEvent{
		at: compEnd, worker: w, size: size,
		sendStart: sendStart, sendEnd: sendEnd, compStart: compStart,
	})
	if compEnd > f.makespan {
		f.makespan = compEnd
	}
}

func (f *fakeEngine) completeNext(alg Algorithm) {
	best := -1
	for i, ev := range f.events {
		if best < 0 || ev.at < f.events[best].at {
			best = i
		}
	}
	if best < 0 {
		return
	}
	ev := f.events[best]
	f.events = append(f.events[:best], f.events[best+1:]...)
	if ev.at > f.now {
		f.now = ev.at
	}
	f.pending[ev.worker] -= ev.size
	f.pchunks[ev.worker]--
	f.inflight--
	alg.Observe(Observation{
		Worker: ev.worker, Size: ev.size,
		SendStart: ev.sendStart, SendEnd: ev.sendEnd,
		CompStart: ev.compStart, CompEnd: ev.at,
	})
}

// totalDispatched sums all dispatched chunk sizes.
func (f *fakeEngine) totalDispatched() float64 {
	return sumSizes(f.dispatches)
}

// homogeneousEstimates builds n identical estimates.
func homogeneousEstimates(n int, unitComm, commLat, unitComp, compLat float64) []model.Estimate {
	ests := make([]model.Estimate, n)
	for i := range ests {
		ests[i] = model.Estimate{
			Worker: i, UnitComm: unitComm, CommLatency: commLat,
			UnitComp: unitComp, CompLatency: compLat,
		}
	}
	return ests
}

// das2Estimates mirrors the DAS-2 platform constants used throughout the
// experiments (per-unit comm 0.01087 s, comp 0.402 s).
func das2Estimates(n int) []model.Estimate {
	return homogeneousEstimates(n, 1000.0/92e3, 6.4, 0.402, 0.7)
}

// TestHarnessAllAlgorithmsCoverLoad drives every registered algorithm to
// completion and checks the fundamental invariant: all load is
// dispatched, exactly once.
func TestHarnessAllAlgorithmsCoverLoad(t *testing.T) {
	for _, name := range Names() {
		for _, workers := range []int{1, 2, 7, 16} {
			t.Run(fmt.Sprintf("%s/%dw", name, workers), func(t *testing.T) {
				alg, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				f := newFakeEngine(das2Estimates(workers), 240000, 10)
				if err := f.run(alg); err != nil {
					t.Fatal(err)
				}
				if got := f.totalDispatched(); !nearly(got, 240000, 1e-6) {
					t.Errorf("dispatched %.3f of 240000", got)
				}
				if f.remaining > 1e-9 {
					t.Errorf("remaining %.6g", f.remaining)
				}
			})
		}
	}
}

// TestHarnessHeterogeneousCoverLoad repeats the invariant on a strongly
// heterogeneous platform (the GRAIL shape: one slow worker).
func TestHarnessHeterogeneousCoverLoad(t *testing.T) {
	ests := das2Estimates(7)
	ests[0].UnitComp *= 2.5
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			alg, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			f := newFakeEngine(ests, 1830, 1)
			if err := f.run(alg); err != nil {
				t.Fatal(err)
			}
			if got := f.totalDispatched(); !nearly(got, 1830, 1e-6) {
				t.Errorf("dispatched %.3f of 1830", got)
			}
		})
	}
}

func nearly(a, b, rel float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale == 0 {
		return d == 0
	}
	return d/scale <= rel
}
