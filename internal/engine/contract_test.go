package engine_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/live"
	"apstdv/internal/model"
	"apstdv/internal/workload"
)

// checked wraps a backend and fails the test when it breaks the engine's
// callback contract (see engine.Backend): a done or a timer firing
// outside Run, or two of them at once. It offers the op forms whether
// or not the wrapped backend does — translating them to the closure
// forms when it does not — so both completion paths are checked, and it
// forwards Stop to a wrapped Stopper.
type checked struct {
	engine.Backend
	*contract
}

// contract is the checks' state. The views of one shared world share
// one, so a callback of one job overlapping another job's is caught too.
type contract struct {
	t              *testing.T
	inRun, busy    atomic.Bool
	calls, firings atomic.Int64
	// late delays entering Run, so a completion delivered before Run is
	// caught even when the wrapped backend is fast.
	late time.Duration
}

func (c *checked) Run() {
	time.Sleep(c.late)
	c.inRun.Store(true)
	c.Backend.Run()
	c.inRun.Store(false)
}

func (c *checked) Stop() {
	if s, ok := c.Backend.(engine.Stopper); ok {
		s.Stop()
	}
}

// callback runs one callback under the checks. The yield widens the
// window in which an overlapping callback would be caught.
func (c *checked) callback(fn func()) {
	if !c.inRun.Load() {
		c.t.Error("callback outside Run")
	}
	if !c.busy.CompareAndSwap(false, true) {
		c.t.Error("two callbacks at once")
	}
	c.calls.Add(1)
	runtime.Gosched()
	fn()
	c.busy.Store(false)
}

func (c *checked) done(done func(start, end float64, err error)) func(start, end float64, err error) {
	return func(start, end float64, err error) { c.callback(func() { done(start, end, err) }) }
}

func (c *checked) opDone(op uint64, done func(op uint64, start, end float64, err error)) func(start, end float64, err error) {
	return func(start, end float64, err error) { c.callback(func() { done(op, start, end, err) }) }
}

func (c *checked) Transfer(w int, bytes float64, done func(start, end float64, err error)) {
	c.Backend.Transfer(w, bytes, c.done(done))
}

func (c *checked) Execute(w int, size float64, probe bool, done func(start, end float64, err error)) {
	c.Backend.Execute(w, size, probe, c.done(done))
}

func (c *checked) ReturnOutput(w int, bytes float64, done func(start, end float64, err error)) {
	c.Backend.ReturnOutput(w, bytes, c.done(done))
}

func (c *checked) TransferOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	if ob, ok := c.Backend.(engine.OpBackend); ok {
		ob.TransferOp(w, bytes, op, func(op uint64, start, end float64, err error) {
			c.callback(func() { done(op, start, end, err) })
		})
		return
	}
	c.Backend.Transfer(w, bytes, c.opDone(op, done))
}

func (c *checked) ExecuteOp(w int, size float64, probe bool, op uint64, done func(op uint64, start, end float64, err error)) {
	if ob, ok := c.Backend.(engine.OpBackend); ok {
		ob.ExecuteOp(w, size, probe, op, func(op uint64, start, end float64, err error) {
			c.callback(func() { done(op, start, end, err) })
		})
		return
	}
	c.Backend.Execute(w, size, probe, c.opDone(op, done))
}

func (c *checked) ReturnOutputOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	if ob, ok := c.Backend.(engine.OpBackend); ok {
		ob.ReturnOutputOp(w, bytes, op, func(op uint64, start, end float64, err error) {
			c.callback(func() { done(op, start, end, err) })
		})
		return
	}
	c.Backend.ReturnOutput(w, bytes, c.opDone(op, done))
}

// checkedTimer is checked for a backend with timers (live.Backend), and
// checkedPeer for one with peer transfers as well (grid.Backend).
type checkedTimer struct{ *checked }

type checkedPeer struct{ checkedTimer }

func (c checkedTimer) AfterFunc(d float64, fn func(id engine.TimerID)) engine.TimerID {
	return c.Backend.(engine.Timer).AfterFunc(d, func(id engine.TimerID) {
		c.firings.Add(1)
		c.callback(func() { fn(id) })
	})
}

func (c checkedTimer) CancelTimer(id engine.TimerID) { c.Backend.(engine.Timer).CancelTimer(id) }

func (c checkedPeer) PeerTransferOp(from, to int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	c.Backend.(engine.PeerBackend).PeerTransferOp(from, to, bytes, op, func(op uint64, start, end float64, err error) {
		c.callback(func() { done(op, start, end, err) })
	})
}

// check wraps b for the contract checks kept in k, offering the
// optional interfaces b implements.
func check(k *contract, b engine.Backend) (engine.Backend, *checked) {
	c := &checked{Backend: b, contract: k}
	_, timer := b.(engine.Timer)
	_, peer := b.(engine.PeerBackend)
	switch {
	case timer && peer:
		return checkedPeer{checkedTimer{c}}, c
	case timer:
		return checkedTimer{c}, c
	}
	return c, c
}

// TestGridBackendKeepsCallbackContract runs crash-and-retry runs with
// peer redistribution and a stalled worker on the simulated backend —
// stage deadlines, peer transfers and the op forms all call back —
// under the contract checks.
func TestGridBackendKeepsCallbackContract(t *testing.T) {
	platform := workload.Mixed(3, 3)
	app := &model.Application{Name: "contract", TotalLoad: 2000, BytesPerUnit: 1000,
		OutputBytesPerUnit: 100, UnitCost: 0.4, Gamma: 0.1, MinChunk: 5}
	var firings int64
	for seed := uint64(1); seed <= 4; seed++ {
		plan := &grid.FaultPlan{}
		if crashes := grid.RandomCrashPlan(seed, len(platform.Workers), 0.3, 10, 200); crashes != nil {
			plan = crashes
		}
		plan.Faults = append(plan.Faults, grid.WorkerFault{Worker: 5, Kind: grid.FaultStall, At: 30, Duration: 2000})
		backend, err := grid.New(platform, app, grid.Config{Seed: seed, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		b, c := check(&contract{t: t}, backend)
		_, err = engine.Execute(context.Background(), engine.Request{
			Backend: b, Algorithm: dls.NewWeightedFactoring(), App: app, Platform: platform,
			Config: engine.Config{ProbeLoad: 20, RecalibrateInterval: 50,
				Retry: &engine.RetryPolicy{Redistribute: true, MaxAttempts: 6}},
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err) // a crash plan may leave no worker
		}
		if c.calls.Load() == 0 {
			t.Fatalf("seed %d: no callback was checked", seed)
		}
		firings += c.firings.Load()
	}
	if firings == 0 {
		t.Fatal("no stage deadline fired")
	}
}

// TestJobViewsKeepCallbackContract runs three jobs in one shared world
// through engine.ExecuteShared, every view under one set of contract
// checks: every callback of every job happens inside the drive
// function, and no two at once.
func TestJobViewsKeepCallbackContract(t *testing.T) {
	w, err := grid.NewMultiWorld(workload.DAS2(6), grid.FairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 3
	k := &contract{t: t}
	reqs := make([]engine.Request, jobs)
	for i := range reqs {
		app := &model.Application{Name: "contract", TotalLoad: 600, BytesPerUnit: 1000,
			OutputBytesPerUnit: 50, UnitCost: 0.4, MinChunk: 10}
		v, err := w.AddJob(app, []int{0, 1, 2, 3, 4, 5}, float64(20*i))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := check(k, v)
		reqs[i] = engine.Request{Backend: b, Algorithm: dls.NewWeightedFactoring(), App: app}
	}
	run := func() {
		k.inRun.Store(true)
		w.Run()
		k.inRun.Store(false)
	}
	if _, err := engine.ExecuteShared(run, reqs); err != nil {
		t.Fatal(err)
	}
	if k.calls.Load() == 0 {
		t.Fatal("no callback was checked")
	}
}

// TestLiveBackendKeepsCallbackContract runs the live backend — one
// goroutine per operation, wall-clock deadline timers — under the
// contract checks: its probing round and first dispatches are issued
// before Run, so their completions must wait for it, and its RPC
// completions must never overlap.
func TestLiveBackendKeepsCallbackContract(t *testing.T) {
	backend, _, cleanup, err := live.Cluster(3, 20000, live.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	b, c := check(&contract{t: t}, backend)
	c.late = 20 * time.Millisecond
	app := &model.Application{Name: "contract", TotalLoad: 120, BytesPerUnit: 4096,
		OutputBytesPerUnit: 64, UnitCost: 1, MinChunk: 1}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: b, Algorithm: dls.NewWeightedFactoring(), App: app,
		Config: engine.Config{ProbeLoad: 4, Retry: &engine.RetryPolicy{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.BuildReport(3).TotalLoad; got < 120-1e-6 {
		t.Fatalf("computed %g of 120", got)
	}
	if c.calls.Load() == 0 {
		t.Fatal("no callback was checked")
	}
}

// TestLiveBackendTimersFireOnlyInsideRun pins the wall-clock half of
// the contract: a timer that comes due before Run is entered fires
// inside it, and one still armed when Run returns never fires.
func TestLiveBackendTimersFireOnlyInsideRun(t *testing.T) {
	backend, _, cleanup, err := live.Cluster(1, 100, live.NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	b, c := check(&contract{t: t}, backend)
	c.late = 20 * time.Millisecond
	timer := b.(engine.Timer)
	early, late := make(chan struct{}), make(chan struct{}, 1)
	timer.AfterFunc(0.001, func(engine.TimerID) { close(early) })
	ran := make(chan struct{})
	go func() { b.Run(); close(ran) }()
	select {
	case <-early:
	case <-time.After(10 * time.Second):
		t.Fatal("a timer due before Run never fired")
	}
	timer.AfterFunc(0.05, func(engine.TimerID) { late <- struct{}{} })
	b.(engine.Stopper).Stop()
	<-ran
	select {
	case <-late:
		t.Fatal("a timer fired after Run returned")
	case <-time.After(150 * time.Millisecond):
	}
	if c.firings.Load() != 1 {
		t.Fatalf("%d timer firings reached the backend's callback path, want 1", c.firings.Load())
	}
}
