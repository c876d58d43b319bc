package grid

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"apstdv/internal/model"
)

func faultBackend(t *testing.T, n int, plan *FaultPlan) *Backend {
	t.Helper()
	b, err := New(testPlatform(n), testApp(0), Config{Seed: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFaultCrashFailsTransferAtCrashInstant(t *testing.T) {
	plan := &FaultPlan{Faults: []WorkerFault{{Worker: 0, Kind: FaultCrash, At: 1}}}
	b := faultBackend(t, 1, plan)
	var end float64
	var opErr error
	// 2 s latency + 0.5 s payload would finish at 2.5, but the worker
	// dies at t=1: the transfer must fail then, not run to completion.
	b.Transfer(0, 500000, func(s, e float64, err error) { end, opErr = e, err })
	b.Run()
	if !errors.Is(opErr, ErrWorkerDown) {
		t.Fatalf("transfer error = %v, want ErrWorkerDown", opErr)
	}
	if math.Abs(end-1) > 1e-12 {
		t.Errorf("transfer failed at t=%g, want the crash instant t=1", end)
	}
}

func TestFaultCrashFailsOpsOnDeadWorkerImmediately(t *testing.T) {
	plan := &FaultPlan{Faults: []WorkerFault{{Worker: 0, Kind: FaultCrash, At: 0}}}
	b := faultBackend(t, 1, plan)
	errs := make([]error, 3)
	b.Transfer(0, 1000, func(_, _ float64, err error) { errs[0] = err })
	b.Execute(0, 10, false, func(_, _ float64, err error) { errs[1] = err })
	b.ReturnOutput(0, 1000, func(_, _ float64, err error) { errs[2] = err })
	b.Run()
	for i, err := range errs {
		if !errors.Is(err, ErrWorkerDown) {
			t.Errorf("op %d on dead worker: error = %v, want ErrWorkerDown", i, err)
		}
	}
}

func TestFaultStallDelaysComputeWithoutError(t *testing.T) {
	// 10 units × 0.1 s + 0.5 s latency = 1.5 s normally. A 100 s stall
	// starting at t=1 freezes the job mid-flight: it completes 100 s
	// late, with no error — only a deadline can catch this.
	plan := &FaultPlan{Faults: []WorkerFault{{Worker: 0, Kind: FaultStall, At: 1, Duration: 100}}}
	b := faultBackend(t, 1, plan)
	var end float64
	var opErr error
	b.Execute(0, 10, false, func(_, e float64, err error) { end, opErr = e, err })
	b.Run()
	if opErr != nil {
		t.Fatalf("stalled compute returned error %v; stalls must look like slowness", opErr)
	}
	if math.Abs(end-101.5) > 1e-9 {
		t.Errorf("stalled compute finished at t=%g, want 101.5", end)
	}
}

func TestFaultSlowdownStretchesCompute(t *testing.T) {
	// Factor 2 over the whole job: the 1 s of work past the 0.5 s
	// latency runs at half speed within the window.
	plan := &FaultPlan{Faults: []WorkerFault{{Worker: 0, Kind: FaultSlowdown, At: 0, Duration: 1000, Factor: 2}}}
	b := faultBackend(t, 1, plan)
	var end float64
	b.Execute(0, 10, false, func(_, e float64, _ error) { end = e })
	b.Run()
	if math.Abs(end-2.5) > 1e-9 {
		t.Errorf("slowed compute finished at t=%g, want 2.5 (0.5 latency + 2×1)", end)
	}
}

func TestFaultFreeWorkerUnaffectedByOtherWorkersFaults(t *testing.T) {
	plan := &FaultPlan{Faults: []WorkerFault{{Worker: 0, Kind: FaultCrash, At: 0}}}
	b := faultBackend(t, 2, plan)
	var end float64
	var opErr error
	b.Execute(1, 10, false, func(_, e float64, err error) { end, opErr = e, err })
	b.Run()
	if opErr != nil || math.Abs(end-1.5) > 1e-9 {
		t.Errorf("healthy worker: end=%g err=%v, want 1.5 and nil", end, opErr)
	}
}

func TestRandomCrashPlanDeterministicAndBounded(t *testing.T) {
	a := RandomCrashPlan(7, 16, 0.5, 100, 200)
	b := RandomCrashPlan(7, 16, 0.5, 100, 200)
	if a == nil || len(a.Faults) == 0 {
		t.Fatal("prob 0.5 over 16 workers drew no crashes")
	}
	if len(a.Faults) != len(b.Faults) {
		t.Fatalf("same seed drew %d vs %d crashes", len(a.Faults), len(b.Faults))
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Errorf("fault %d differs across identical seeds: %+v vs %+v", i, a.Faults[i], b.Faults[i])
		}
		if at := a.Faults[i].At; at < 100 || at > 200 {
			t.Errorf("crash time %g outside [100, 200]", at)
		}
	}
	if RandomCrashPlan(7, 16, 0, 100, 200) != nil {
		t.Error("prob 0 must produce no plan")
	}
}

func TestRandomCrashPlanSparesOneWorker(t *testing.T) {
	// Even at probability 1, one worker must survive so the run can
	// degrade instead of trivially failing every experiment cell.
	plan := RandomCrashPlan(3, 4, 1, 10, 20)
	if plan == nil {
		t.Fatal("prob 1 produced no plan")
	}
	if len(plan.Faults) != 3 {
		t.Errorf("prob 1 over 4 workers kept %d crashes, want 3 (one survivor)", len(plan.Faults))
	}
}

func TestFaultPlanConsumesNoSharedRandomness(t *testing.T) {
	// Fault compilation must not touch the rng streams: the same seed
	// with and without a (never-hit) fault plan produces identical noisy
	// compute times.
	run := func(plan *FaultPlan) []float64 {
		b, err := New(testPlatform(1), testApp(0.2), Config{Seed: 9, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		var ends []float64
		for i := 0; i < 3; i++ {
			b.Execute(0, 100, false, func(_, e float64, _ error) { ends = append(ends, e) })
		}
		b.Run()
		return ends
	}
	plain := run(nil)
	faulty := run(&FaultPlan{Faults: []WorkerFault{{Worker: 0, Kind: FaultCrash, At: 1e9}}})
	if plain[0] == 10.5 {
		t.Fatal("γ = 0.2 drew no compute noise")
	}
	for i := range plain {
		if plain[i] != faulty[i] {
			t.Errorf("execution %d ends drifted with an unused fault plan: %g vs %g", i, plain[i], faulty[i])
		}
	}
}

// TestCrashCutsEveryOp pins the one crash rule on every op the backend
// issues: an op on a worker that is already down fails at its issue
// time, and an op whose worker dies before it ends fails at the crash
// instant. A flow on a link graph can be cut in its latency phase or
// while it drains. Worker 0 crashes; every op targets it.
func TestCrashCutsEveryOp(t *testing.T) {
	type issuer = func(b *Backend, done func(uint64, float64, float64, error))
	transfer := func(b *Backend, done func(uint64, float64, float64, error)) { b.TransferOp(0, 5e5, 0, done) }
	peer := func(b *Backend, done func(uint64, float64, float64, error)) { b.PeerTransferOp(1, 0, 5e5, 0, done) }
	execute := func(b *Backend, done func(uint64, float64, float64, error)) { b.ExecuteOp(0, 10, false, 0, done) }
	ret := func(b *Backend, done func(uint64, float64, float64, error)) { b.ReturnOutputOp(0, 5e5, 0, done) }
	star, tree := testPlatform(2), linkPlatform(t, 1, 0.5)
	cases := []struct {
		name string
		p    *model.Platform
		op   issuer
		// full is the op's uncut duration; at is a crash instant inside it.
		full, at float64
		// events, when not zero, is how many engine events the op issued
		// at 0 fires when the crash at at cuts it, and uncut is how many
		// it fires without a crash.
		events, uncut int
	}{
		// 2 s latency + 5e5 B at 1e6 B/s.
		{"transfer/star", star, transfer, 2.5, 1, 0, 0},
		{"peer/star", star, peer, 2.5, 1, 0, 0},
		// 1.5 s of link latency, then 5e5 B alone on the 1e6 B/s uplink.
		// Alone on the net, the uncut transfer is one event; a crash that
		// would cut it keeps the latency phase's end as an event of its
		// own (see linkNet.start).
		{"transfer/tree/latency", tree, transfer, 2, 1, 1, 1},
		{"transfer/tree/flow", tree, transfer, 2, 1.75, 2, 1},
		// The peer route is the two 1e7 B/s leaves: 1 s, then 0.05 s.
		{"peer/tree/latency", tree, peer, 1.05, 0.5, 1, 2},
		{"peer/tree/flow", tree, peer, 1.05, 1.025, 2, 2},
		// 0.5 s launch + 10 units × 0.1 s.
		{"execute", star, execute, 1.5, 1, 0, 0},
		// 2 s latency + 5e5 B at 1e6 B/s on the downlink.
		{"return", star, ret, 2.5, 1, 0, 0},
	}
	// crashing returns a backend whose worker 0 crashes at crashAt.
	crashing := func(t *testing.T, p *model.Platform, crashAt float64) *Backend {
		t.Helper()
		plan := &FaultPlan{Faults: []WorkerFault{{Worker: 0, Kind: FaultCrash, At: crashAt}}}
		b, err := New(p, testApp(0), Config{Seed: 1, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// run issues op at issueAt on a backend whose worker 0 crashes at
	// crashAt and returns what its one completion reported.
	run := func(t *testing.T, p *model.Platform, op issuer, crashAt, issueAt float64) (start, end float64, err error) {
		t.Helper()
		b := crashing(t, p, crashAt)
		calls := 0
		b.AfterFunc(issueAt, func(uint64) {
			op(b, func(_ uint64, s, e float64, opErr error) {
				calls++
				start, end, err = s, e, opErr
			})
		})
		b.Run()
		if calls != 1 {
			t.Fatalf("done called %d times", calls)
		}
		return start, end, err
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, end, err := run(t, tc.p, tc.op, 1e9, 0); err != nil || end != tc.full {
				t.Fatalf("uncut op ended at %g with %v, want %g and nil", end, err, tc.full)
			}
			want := fmt.Sprintf("grid: worker down: worker 0 crashed at t=%.3gs", tc.at)
			// Issued at 0 the worker dies mid-op; issued at 3 it is already down.
			for _, issueAt := range []float64{0, 3} {
				start, end, err := run(t, tc.p, tc.op, tc.at, issueAt)
				if err == nil || err.Error() != want || !errors.Is(err, ErrWorkerDown) {
					t.Errorf("issued at %g: error %v, want %q", issueAt, err, want)
				}
				if wantEnd := max(tc.at, issueAt); start != issueAt || end != wantEnd {
					t.Errorf("issued at %g: op ran [%g, %g], want [%g, %g]", issueAt, start, end, issueAt, wantEnd)
				}
			}
			if tc.events == 0 {
				return
			}
			for _, c := range []struct {
				crashAt float64
				want    int
			}{{tc.at, tc.events}, {1e9, tc.uncut}} {
				b := crashing(t, tc.p, c.crashAt)
				tc.op(b, func(uint64, float64, float64, error) {})
				if n := engineSteps(b); n != c.want {
					t.Errorf("crash at %g: op fired %d engine events, want %d", c.crashAt, n, c.want)
				}
			}
		})
	}
}

// A plan naming a worker the platform lacks, or carrying a NaN, used to
// be dropped fault by fault and the run went fault-free. New and Reset
// refuse it with ErrInvalidFaultPlan instead, and a refused Reset
// leaves the backend able to take a valid plan.
func TestFaultPlanRefusesUnknownWorkerAndNaN(t *testing.T) {
	nan := math.NaN()
	bad := []struct {
		name  string
		fault WorkerFault
	}{
		{"worker past the platform", WorkerFault{Worker: 2, Kind: FaultCrash, At: 1}},
		{"negative worker", WorkerFault{Worker: -1, Kind: FaultStall, At: 1, Duration: 5}},
		{"NaN at", WorkerFault{Worker: 0, Kind: FaultCrash, At: nan}},
		{"NaN duration", WorkerFault{Worker: 1, Kind: FaultStall, At: 1, Duration: nan}},
		{"NaN factor", WorkerFault{Worker: 1, Kind: FaultSlowdown, At: 1, Duration: 5, Factor: nan}},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			ok := WorkerFault{Worker: 0, Kind: FaultCrash, At: 3}
			plan := &FaultPlan{Faults: []WorkerFault{ok, c.fault}}
			if _, err := New(testPlatform(2), testApp(0), Config{Faults: plan}); !errors.Is(err, ErrInvalidFaultPlan) {
				t.Fatalf("New: error %v, want ErrInvalidFaultPlan", err)
			}
			b := faultBackend(t, 2, nil)
			if err := b.Reset(testApp(0), Config{Faults: plan}); !errors.Is(err, ErrInvalidFaultPlan) {
				t.Fatalf("Reset: error %v, want ErrInvalidFaultPlan", err)
			}
			if err := b.Reset(testApp(0), Config{Faults: &FaultPlan{Faults: []WorkerFault{ok}}}); err != nil {
				t.Fatalf("Reset with a valid plan after a refused one: %v", err)
			}
			var opErr error
			b.AfterFunc(5, func(uint64) {
				b.ExecuteOp(0, 1, false, 0, func(_ uint64, _, _ float64, err error) { opErr = err })
			})
			b.Run()
			if !errors.Is(opErr, ErrWorkerDown) {
				t.Fatalf("op after the valid plan's crash: error %v, want ErrWorkerDown", opErr)
			}
		})
	}
}

// A crashed worker's error is built once per plan, when the plan is
// compiled, and shared by the ops its crash cuts in every run of the
// plan; a Reset onto another plan uses that plan's error, and the error
// an earlier run returned never changes.
func TestCrashErrorFollowsResetPlan(t *testing.T) {
	b := faultBackend(t, 1, nil)
	crashAt := func(at float64) *FaultPlan {
		return &FaultPlan{Faults: []WorkerFault{{Worker: 0, Kind: FaultCrash, At: at}}}
	}
	cut := func(plan *FaultPlan) []error {
		t.Helper()
		if err := b.Reset(testApp(0), Config{Faults: plan}); err != nil {
			t.Fatal(err)
		}
		var errs []error
		for i := 0; i < 2; i++ {
			b.ExecuteOp(0, 1e6, false, 0, func(_ uint64, _, _ float64, err error) { errs = append(errs, err) })
		}
		b.Run()
		return errs
	}
	at3 := crashAt(3)
	first := cut(at3)
	if len(first) != 2 || first[0] != first[1] {
		t.Fatalf("two ops cut by one crash failed with %v; want one shared error", first)
	}
	second := cut(crashAt(4))
	if got, want := first[0].Error(), "grid: worker down: worker 0 crashed at t=3s"; got != want {
		t.Errorf("first run's error after a second run = %q, want %q", got, want)
	}
	if got, want := second[0].Error(), "grid: worker down: worker 0 crashed at t=4s"; got != want {
		t.Errorf("second run's error = %q, want %q", got, want)
	}
	if third := cut(at3); third[0] != first[0] {
		t.Errorf("a second run of the first plan failed with a new error %p; want the plan's own %p", third[0], first[0])
	}
}

// A plan is compiled per platform size: one valid on three workers is
// refused on two, and still runs on three after that.
func TestFaultPlanCompiledPerPlatformSize(t *testing.T) {
	plan := &FaultPlan{Faults: []WorkerFault{{Worker: 2, Kind: FaultCrash, At: 1}}}
	if _, err := New(testPlatform(3), testApp(0), Config{Faults: plan}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(testPlatform(2), testApp(0), Config{Faults: plan}); !errors.Is(err, ErrInvalidFaultPlan) {
		t.Fatalf("a plan naming worker 2 on a 2-worker platform: error %v, want ErrInvalidFaultPlan", err)
	}
	b := faultBackend(t, 3, plan)
	var opErr error
	b.ExecuteOp(2, 100, false, 0, func(_ uint64, _, _ float64, err error) { opErr = err })
	b.Run()
	if !errors.Is(opErr, ErrWorkerDown) {
		t.Fatalf("op on the crashed worker 2: error %v, want ErrWorkerDown", opErr)
	}
}
