package live

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCloseIsIdempotent(t *testing.T) {
	svc := NewWorkerService(1, 1)
	addr, stop, err := Serve(svc)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	b, err := Dial([]WorkerConn{{Addr: addr}, {Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	running(t, b)
	if err := b.Close(); err != nil {
		t.Errorf("clean close of healthy connections: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second Close must be a no-op, got: %v", err)
	}
	// After close, operations fail through their callbacks instead of
	// panicking on a nil connection.
	done := make(chan error, 1)
	b.Transfer(0, 100, func(_, _ float64, err error) { done <- err })
	if err := <-done; err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("transfer after Close: err = %v, want connection-closed error", err)
	}
}

func TestCloseRacesInFlightOperations(t *testing.T) {
	// Close while transfers/computes are in flight: nothing may panic or
	// deadlock, and every callback must fire exactly once (wg balance is
	// checked by Run returning). Run under -race this also exercises the
	// clients-slice locking.
	svc := NewWorkerService(1, 1)
	addr, stop, err := Serve(svc)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	b, err := Dial([]WorkerConn{{Addr: addr}, {Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	go func() { b.Run(); close(ran) }()
	const ops = 20
	var fired sync.WaitGroup
	fired.Add(3 * ops)
	cb := func(_, _ float64, _ error) { fired.Done() }
	for i := 0; i < ops; i++ {
		b.Transfer(i%2, 4096, cb)
		b.Execute(i%2, 1, false, cb)
		b.ReturnOutput(i%2, 64, cb)
	}
	go b.Close()
	waitDone := make(chan struct{})
	go func() { fired.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("callbacks did not all fire after racing Close")
	}
	b.Stop()
	<-ran // Run drains the op goroutines; hangs if wg is unbalanced
}

func TestDialFailureClosesPartialConnections(t *testing.T) {
	svc := NewWorkerService(1, 1)
	addr, stop, err := Serve(svc)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Second address refuses connections: Dial must fail and release the
	// first connection rather than leaking it.
	if _, err := Dial([]WorkerConn{{Addr: addr}, {Addr: "127.0.0.1:1"}}); err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
}

func TestCallTimeoutFailsSlowRPC(t *testing.T) {
	// A worker that takes longer than CallTimeout must surface a
	// deadline error through the done callback instead of wedging the
	// run forever.
	svc := NewWorkerService(200000, 1) // heavy per-unit work
	addr, stop, err := Serve(svc)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	b, err := Dial([]WorkerConn{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	running(t, b)
	b.CallTimeout = 10 * time.Millisecond
	done := make(chan error, 1)
	b.Execute(0, 1e6, false, func(_, _ float64, err error) { done <- err }) // 2e11 iterations, under the limit
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Errorf("slow compute: err = %v, want deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow RPC never timed out")
	}
}

// TestAbortKillsRunningCompute pins the cancellation path: a compute
// burning a large chunk stops with an error shortly after Abort instead
// of running to completion.
func TestAbortKillsRunningCompute(t *testing.T) {
	svc := NewWorkerService(200_000_000, 1) // several seconds of work
	done := make(chan error, 1)
	go func() {
		var reply ComputeReply
		done <- svc.Compute(ComputeArgs{Units: 10}, &reply)
	}()
	// Let the loop start, then abort.
	time.Sleep(50 * time.Millisecond)
	var ar AbortReply
	if err := svc.Abort(AbortArgs{}, &ar); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, errAborted) {
			t.Fatalf("compute returned %v, want errAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not stop the compute loop")
	}
	// A computation submitted after the abort runs normally.
	var reply ComputeReply
	if err := svc.Compute(ComputeArgs{Units: 0.001}, &reply); err != nil {
		t.Fatalf("post-abort compute failed: %v", err)
	}
	if svc.Computed() != 1 {
		t.Fatalf("computed = %d, want 1 (aborted chunk must not count)", svc.Computed())
	}
}

// TestBackendCancelUnblocksRun pins the daemon-facing contract: Cancel
// aborts worker compute and closes connections, after which Run (once
// stopped) returns because the in-flight operations fail fast.
func TestBackendCancelUnblocksRun(t *testing.T) {
	b, _, cleanup, err := Cluster(2, 200_000_000, NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	ran := make(chan struct{})
	go func() { b.Run(); close(ran) }()
	opDone := make(chan error, 1)
	b.Execute(0, 10, false, func(start, end float64, err error) { opDone <- err })
	time.Sleep(50 * time.Millisecond)
	b.Cancel()
	select {
	case err := <-opDone:
		if err == nil {
			t.Fatal("compute survived Cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not fail the in-flight compute")
	}
	b.Stop()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Cancel + Stop")
	}
}

// running runs b.Run on its own goroutine until the test ends. The
// backend keeps the engine's callback contract, so a test that drives
// its operations directly gets their completions only while Run runs.
func running(t *testing.T, b *Backend) {
	ran := make(chan struct{})
	go func() { b.Run(); close(ran) }()
	t.Cleanup(func() { b.Stop(); <-ran })
}

// An operation issued on a backend that is closed without running ends
// its goroutine: the completion is held, not waited on. A Run entered
// afterwards still delivers it, exactly once and inside Run.
func TestCloseWithoutRunLeavesNoGoroutine(t *testing.T) {
	b, _, cleanup, err := Cluster(1, 1, NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	var calls atomic.Int32
	var inRun atomic.Bool
	b.Execute(0, 10, false, func(_, _ float64, _ error) {
		if !inRun.Load() {
			t.Error("completion delivered outside Run")
		}
		calls.Add(1)
	})
	b.Close()
	drained := make(chan struct{})
	go func() { b.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the operation's goroutine still waits after Close without Run")
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d completions before Run", n)
	}
	inRun.Store(true)
	ran := make(chan struct{})
	go func() { b.Run(); close(ran) }()
	b.Stop()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Stop")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d completions delivered by Run, want 1", n)
	}
}
