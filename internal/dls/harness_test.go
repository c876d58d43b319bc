package dls

import (
	"fmt"
	"math"
	"slices"
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
	completed  float64

	// loseAfter, when non-negative, takes a worker out of service once
	// that many decisions have been dispatched: the target of the latest
	// one (worker 0 before any). As under engine.RetryPolicy, its chunks
	// in flight return to the engine, which re-dispatches them to the
	// least-loaded survivor ahead of fresh load; the algorithm is told
	// through WorkerLossAware and must not target the worker again.
	loseAfter int
	lost      int // the worker taken out of service, or -1
	retry     []float64
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
		loseAfter: -1,
		lost:      -1,
	}
}

func (f *fakeEngine) state() State {
	return State{
		Now:           f.now,
		Remaining:     f.remaining,
		Pending:       f.pending,
		PendingChunks: f.pchunks,
		InFlight:      f.inflight,
		Completed:     f.completed,
	}
}

// maxFakeDispatches turns an algorithm that would never finish into an
// error. The most any registered algorithm cuts is weighted factoring's
// fifty thousand chunks for a million units with no granularity floor.
const maxFakeDispatches = 1 << 20

// run plans and executes the algorithm to completion. It returns an
// error if the algorithm stalls, dispatches out of range or to a lost
// worker, or never ends.
func (f *fakeEngine) run(alg Algorithm) error {
	if err := alg.Plan(Plan{TotalLoad: f.total, MinChunk: f.minChunk, Workers: f.ests}); err != nil {
		return err
	}
	for f.remaining > 1e-9 || f.inflight > 0 {
		if f.lost < 0 && len(f.dispatches) == f.loseAfter {
			f.loseWorker(alg)
		}
		if len(f.retry) > 0 {
			size := f.retry[0]
			f.retry = f.retry[1:]
			f.remaining -= size
			f.send(f.survivor(), size)
			continue
		}
		// The next decision is taken when the uplink frees up; chunks that
		// finished by then are observed first, as in the engine's event
		// order, so adaptive algorithms re-plan mid-run.
		for f.remaining > 1e-9 && f.due() {
			f.completeNext(alg)
		}
		progressed := false
		// Dispatch while the algorithm offers work.
		if f.remaining > 1e-9 {
			d, ok := alg.Next(f.state())
			if ok {
				if d.Worker < 0 || d.Worker >= len(f.ests) {
					return fmt.Errorf("dispatch to invalid worker %d", d.Worker)
				}
				if d.Worker == f.lost {
					return fmt.Errorf("dispatch to worker %d, lost after %d dispatches", d.Worker, f.loseAfter)
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
				f.remaining -= size
				f.send(d.Worker, size)
				alg.Dispatched(d.Worker, d.Size, size)
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

// send puts size units on worker w's queue behind the serialized uplink.
func (f *fakeEngine) send(w int, size float64) {
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

	f.pending[w] += size
	f.pchunks[w]++
	f.inflight++
	f.dispatches = append(f.dispatches, Decision{Worker: w, Size: size})
	f.events = append(f.events, fakeEvent{
		at: compEnd, worker: w, size: size,
		sendStart: sendStart, sendEnd: sendEnd, compStart: compStart,
	})
	if compEnd > f.makespan {
		f.makespan = compEnd
	}
}

// loseWorker takes the target of the latest dispatch out of service.
func (f *fakeEngine) loseWorker(alg Algorithm) {
	f.lost = 0
	if n := len(f.dispatches); n > 0 {
		f.lost = f.dispatches[n-1].Worker
	}
	returned := 0.0
	kept := f.events[:0]
	for _, ev := range f.events {
		if ev.worker != f.lost {
			kept = append(kept, ev)
			continue
		}
		f.retry = append(f.retry, ev.size)
		returned += ev.size
		f.inflight--
	}
	f.events = kept
	f.pending[f.lost], f.pchunks[f.lost] = 0, 0
	f.remaining += returned
	alg.(WorkerLossAware).WorkerLost(f.lost, returned)
}

// survivor returns the live worker with the least pending load.
func (f *fakeEngine) survivor() int {
	best := -1
	for w := range f.ests {
		if w != f.lost && (best < 0 || f.pending[w] < f.pending[best]) {
			best = w
		}
	}
	return best
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
	f.completed += ev.size
	alg.Observe(Observation{
		Worker: ev.worker, Size: ev.size,
		SendStart: ev.sendStart, SendEnd: ev.sendEnd,
		CompStart: ev.compStart, CompEnd: ev.at,
	})
}

// due reports whether some chunk in flight has finished by now.
func (f *fakeEngine) due() bool {
	for _, ev := range f.events {
		if ev.at <= f.now {
			return true
		}
	}
	return false
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

// variants returns a fresh instance of every registered algorithm and of
// the oracle RUMR, the one variant New does not build, keyed by name.
func variants(t *testing.T) map[string]Algorithm {
	t.Helper()
	out := map[string]Algorithm{"rumr-oracle": NewOracleRUMR(0.10)}
	for _, name := range Names() {
		alg, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = alg
	}
	return out
}

// TestOptionalInterfacesPerVariant lists the optional interfaces each
// variant implements. Every variant stops targeting a lost worker, and
// every two-phase variant logs its switch evaluations.
func TestOptionalInterfacesPerVariant(t *testing.T) {
	type ifaces struct{ loss, switches, recal, redist bool }
	seq, pool, twoPhase := ifaces{loss: true}, ifaces{loss: true}, ifaces{loss: true, switches: true}
	want := map[string]ifaces{
		"simple-1": seq, "simple-5": seq, "umr": seq, "one-round": seq, "mi-3": seq,
		"wf": pool, "wf-static": pool, "gss": pool, "tss": pool, "factoring-plain": pool,
		"rumr": twoPhase, "rumr-oracle": twoPhase, "fixed-rumr": twoPhase,
		"adaptive-rumr": {loss: true, switches: true, recal: true},
	}
	got := variants(t)
	if len(got) != len(want) {
		t.Fatalf("%d variants, the table lists %d", len(got), len(want))
	}
	for name, alg := range got {
		var has ifaces
		_, has.loss = alg.(WorkerLossAware)
		_, has.switches = alg.(SwitchObservable)
		_, has.recal = alg.(Recalibrator)
		_, has.redist = alg.(RedistributionAware)
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the table", name)
		} else if has != w {
			t.Errorf("%s implements %+v, want %+v", name, has, w)
		}
	}
}

// TestPropertyLostWorkerIsNeverTargeted loses a worker after the k-th
// dispatch and drives every variant to completion: the load is still
// conserved, and no later decision targets the lost worker — through
// adaptive RUMR's re-plans and every hand-off to factoring, which must
// each re-apply the loss.
func TestPropertyLostWorkerIsNeverTargeted(t *testing.T) {
	for name := range variants(t) {
		for _, workers := range []int{2, 3, 7, 16} {
			for _, k := range []int{0, 3, 10} {
				t.Run(fmt.Sprintf("%s/%dw/after%d", name, workers, k), func(t *testing.T) {
					f := newFakeEngine(das2Estimates(workers), 240000, 10)
					f.loseAfter = k
					if err := f.run(variants(t)[name]); err != nil {
						t.Fatal(err)
					}
					if !nearly(f.completed, 240000, 1e-6) {
						t.Errorf("completed %.3f of 240000", f.completed)
					}
					if f.lost < 0 {
						t.Skipf("the whole schedule is %d dispatches", len(f.dispatches))
					}
				})
			}
		}
	}
	// A negative worker in the plan names no worker: it is neither
	// retargeted nor a target for the lost worker's decisions.
	t.Run("negative worker in the plan", func(t *testing.T) {
		var s sequencePlayer
		s.reset([]Decision{{Worker: 1, Size: 1}, {Worker: -1, Size: 1}, {Worker: 1, Size: 1},
			{Worker: 2, Size: 1}, {Worker: 1, Size: 1}, {Worker: 0, Size: 1}})
		s.pos = 1
		s.WorkerLost(1, 1)
		got := make([]int, len(s.seq))
		for i, d := range s.seq {
			got[i] = d.Worker
		}
		if want := []int{1, -1, 0, 2, 2, 0}; !slices.Equal(got, want) {
			t.Errorf("workers after losing 1: %v, want %v", got, want)
		}
	})
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
