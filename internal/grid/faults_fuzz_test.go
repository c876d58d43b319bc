package grid

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"apstdv/internal/model"
)

// FuzzSharedFaultPlanMatchesFresh decodes a fault plan and a handful of
// ops, then runs the ops under that one plan on two backends, with
// Resets onto another plan in between and a run on a platform one
// worker larger (the plan is cached for the size of its first run and
// compiled afresh on any other). Every run must end every op at the
// instant, and with the error text, that a backend given a fresh copy
// of the plan gives; and an error an earlier run returned must keep its
// text. The script is read a byte at a time,
// zeros past its end:
//
//	shape: link graph on/off, 2 or 3 workers
//	faults: count, then per fault (5): worker, kind, at, duration, factor
//	ops: count, then per op (4): kind/worker, start, size (2)
func FuzzSharedFaultPlanMatchesFresh(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 16, 0, 0, 0})                                                // one crash, one transfer
	f.Add([]byte{3, 2, 1, 0, 24, 0, 0, 0, 1, 8, 32, 0, 2, 2, 2, 4, 40, 3, 2, 6, 0, 2, 3}) // three faults on a link graph
	f.Add([]byte{2, 3, 0, 0, 8, 0, 0, 1, 0, 8, 0, 0, 2, 0, 0, 0, 0, 5, 1, 0, 0, 9, 5, 2, 0, 1, 2, 3, 4, 1, 7, 0, 0, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		i := 0
		next := func() int {
			if i >= len(script) {
				return 0
			}
			i++
			return int(script[i-1])
		}
		shape := next()
		links, workers := shape%2 == 1, 2+shape/2%2

		faults := make([]WorkerFault, 1+next()%4)
		for k := range faults {
			w, kind, at, dur, factor := next(), next(), next(), next(), next()
			faults[k] = WorkerFault{
				Worker: w % workers, Kind: FaultKind(kind % 3),
				At: float64(at) * 0.0625, Duration: float64(dur) * 0.0625, Factor: float64(factor % 8),
			}
		}
		ops := make([]faultOp, 1+next()%6)
		for k := range ops {
			kind, start, hi, lo := next(), next(), next(), next()
			ops[k] = faultOp{
				kind: kind % 4, w: kind / 4 % workers,
				start: float64(start) * 0.125, size: float64((hi<<8 | lo) % 4096),
			}
		}

		// other moves every fault to the next worker, half a second later.
		other := &FaultPlan{}
		for _, f := range faults {
			f.Worker = (f.Worker + 1) % workers
			f.At += 0.5
			other.Faults = append(other.Faults, f)
		}
		fresh := func() *FaultPlan { return &FaultPlan{Faults: slices.Clone(faults)} }
		plan := &FaultPlan{Faults: faults}

		// On the larger platform the extra worker computes too, so a state
		// compiled for the smaller one cannot serve it.
		small, big := faultPlatform(t, workers, links), faultPlatform(t, workers+1, links)
		bigOps := append(slices.Clone(ops), faultOp{kind: 1, w: workers, size: 64})
		want := runFaultOps(t, newFaultBackend(t, small, fresh()), ops)
		wantBig := runFaultOps(t, newFaultBackend(t, big, fresh()), bigOps)
		check := func(what string, want, got []faultOpResult) {
			t.Helper()
			for k := range want {
				if got[k].end != want[k].end || got[k].text() != want[k].text() {
					t.Fatalf("%s: op %d ended at %v with %q; a fresh plan gives %v with %q",
						what, k, got[k].end, got[k].text(), want[k].end, want[k].text())
				}
				if got[k].err != nil && !errors.Is(got[k].err, ErrWorkerDown) {
					t.Fatalf("%s: op %d failed with %v, not ErrWorkerDown", what, k, got[k].err)
				}
			}
		}
		reset := func(b *Backend, p *FaultPlan) *Backend {
			t.Helper()
			if err := b.Reset(testApp(0.1), Config{Seed: 1, Faults: p}); err != nil {
				t.Fatal(err)
			}
			return b
		}

		a := newFaultBackend(t, small, plan)
		first := runFaultOps(t, a, ops)
		check("first run", want, first)
		runFaultOps(t, reset(a, other), ops)
		b := newFaultBackend(t, small, other)
		runFaultOps(t, b, ops)
		check("second backend after another plan", want, runFaultOps(t, reset(b, plan), ops))
		check("first backend after another plan", want, runFaultOps(t, reset(a, plan), ops))
		check("larger platform", wantBig, runFaultOps(t, newFaultBackend(t, big, plan), bigOps))
		check("first backend after the larger platform", want, runFaultOps(t, reset(a, plan), ops))
		check("first run, read again", want, first)
	})
}

// faultOp is one op of FuzzSharedFaultPlanMatchesFresh: a transfer, an
// execution, an output return or a peer transfer (from the next worker)
// to or on worker w, issued at start.
type faultOp struct {
	kind, w     int
	start, size float64
}

type faultOpResult struct {
	end float64
	err error
}

func (r faultOpResult) text() string {
	if r.err == nil {
		return ""
	}
	return r.err.Error()
}

// faultPlatform is testPlatform(workers), behind a shared uplink and a
// leaf link per worker when links is set.
func faultPlatform(t *testing.T, workers int, links bool) *model.Platform {
	t.Helper()
	p := testPlatform(workers)
	if !links {
		return p
	}
	tb := model.NewTopology().Link("up", 2e6, 0.5)
	for w := 0; w < workers; w++ {
		leaf := fmt.Sprintf("leaf-%d", w)
		tb.Link(leaf, 1e6, 0.25).Route(w, "up", leaf)
	}
	top, err := tb.Build(workers)
	if err != nil {
		t.Fatal(err)
	}
	p.Topology = top
	return p
}

func newFaultBackend(t *testing.T, p *model.Platform, plan *FaultPlan) *Backend {
	t.Helper()
	b, err := New(p, testApp(0.1), Config{Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runFaultOps issues ops on b, runs it to completion and returns what
// each op's completion reported.
func runFaultOps(t *testing.T, b *Backend, ops []faultOp) []faultOpResult {
	t.Helper()
	out := make([]faultOpResult, len(ops))
	calls := 0
	for k, op := range ops {
		b.AfterFunc(op.start, func(uint64) {
			done := func(_ uint64, _, end float64, err error) {
				calls++
				out[k] = faultOpResult{end, err}
			}
			switch op.kind {
			case 0:
				b.TransferOp(op.w, op.size*250, 0, done)
			case 1:
				b.ExecuteOp(op.w, op.size/64, false, 0, done)
			case 2:
				b.ReturnOutputOp(op.w, op.size*250, 0, done)
			default:
				b.PeerTransferOp((op.w+1)%b.Workers(), op.w, op.size*250, 0, done)
			}
		})
	}
	b.Run()
	if calls != len(ops) {
		t.Fatalf("%d ops completed %d times", len(ops), calls)
	}
	return out
}
