package live

import (
	"sync"
	"testing"
	"time"
)

// TestBackendCloseIdempotentConcurrentWithCancel pins the shutdown
// contract the daemon relies on: Close may be called any number of
// times, from any number of goroutines, racing Cancel and in-flight
// computes, and every call returns without panicking or deadlocking.
// (The daemon's execute path defers backend.Stop while an AfterFunc
// fires backend.Cancel — exactly this race.)
func TestBackendCloseIdempotentConcurrentWithCancel(t *testing.T) {
	b, _, cleanup, err := Cluster(2, 200_000_000, NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	running(t, b)

	// Put long computes in flight on both workers so Cancel and Close
	// race real pending RPCs, not idle connections.
	opDone := make(chan error, 2)
	b.Execute(0, 10, false, func(start, end float64, err error) { opDone <- err })
	b.Execute(1, 10, false, func(start, end float64, err error) { opDone <- err })
	time.Sleep(50 * time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); b.Cancel() }()
		wg.Add(1)
		go func() { defer wg.Done(); b.Close() }()
	}
	raced := make(chan struct{})
	go func() { wg.Wait(); close(raced) }()
	select {
	case <-raced:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Close/Cancel calls did not all return")
	}

	// Both in-flight computes must have been failed by the teardown.
	for i := 0; i < 2; i++ {
		select {
		case err := <-opDone:
			if err == nil {
				t.Fatal("in-flight compute reported success after Close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight compute never unblocked")
		}
	}

	// Close after full teardown stays a no-op.
	if err := b.Close(); err != nil {
		t.Fatalf("repeat Close after teardown: %v", err)
	}
	// And the connections are really gone: new calls fail fast.
	if _, err := b.client(0); err == nil {
		t.Fatal("client(0) usable after Close")
	}
}
