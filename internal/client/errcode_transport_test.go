package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/errcode"
	"apstdv/internal/live"
	"apstdv/internal/workload"
)

// startDaemonOn serves a fresh daemon on a loopback listener and
// returns a client connected to it.
func startDaemonOn(t *testing.T, cfg daemon.Config) (*Client, *daemon.Daemon) {
	t.Helper()
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go d.ServeFrame(ln)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, d
}

// TestErrcodeRoundTripsOverWire pins the error contract the console
// and retry logic depend on: every typed daemon error arrives
// errors.Is-able through the wire. The frame transport carries a
// handler error as an error frame holding its string; the embedded
// [code=...] marker must survive and errcode.Decode must re-attach the
// sentinel.
func TestErrcodeRoundTripsOverWire(t *testing.T) {
	// Live mode with one deliberately slow worker: the first job
	// occupies the single slot for real wall-clock time (sim jobs
	// finish in microseconds — virtual time is free), so the one-deep
	// queue fills deterministically.
	svc := live.NewWorkerService(50_000_000, 1)
	addr, stop, err := live.Serve(svc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	c, _ := startDaemonOn(t, daemon.Config{
		Mode:              daemon.ModeLive,
		LiveWorkers:       []live.WorkerConn{{Addr: addr}},
		MaxConcurrentJobs: 1,
		QueueDepth:        1,
	})

	// job_not_found: Status, Report, Cancel and Events against an id
	// that never existed.
	if _, err := c.Status(404); !errors.Is(err, daemon.ErrJobNotFound) {
		t.Errorf("Status: got %v, want ErrJobNotFound", err)
	}
	if _, err := c.Report(404); !errors.Is(err, daemon.ErrJobNotFound) {
		t.Errorf("Report: got %v, want ErrJobNotFound", err)
	}
	if _, err := c.Cancel(404); !errors.Is(err, daemon.ErrJobNotFound) {
		t.Errorf("Cancel: got %v, want ErrJobNotFound", err)
	}
	if _, _, _, err := c.Events(404, -1); !errors.Is(err, daemon.ErrJobNotFound) {
		t.Errorf("Events: got %v, want ErrJobNotFound", err)
	}

	// queue_full: occupy the slot with a slow job, fill the one-deep
	// queue, then overflow it.
	slow, err := c.Submit(taskXML, "", "", nil)
	if err != nil {
		t.Fatalf("slow job: %v", err)
	}
	if _, err := c.Submit(taskXML, "", "", nil); err != nil {
		t.Fatalf("queued job: %v", err)
	}
	_, err = c.Submit(taskXML, "", "", nil)
	if !errors.Is(err, daemon.ErrQueueFull) {
		t.Errorf("overflow Submit: got %v, want ErrQueueFull", err)
	}
	if errcode.Code(err) != "queue_full" {
		t.Errorf("overflow Submit: code %q, want queue_full", errcode.Code(err))
	}

	// job_cancelled: cancel the running job and read the code off its
	// terminal record.
	if _, err := c.Cancel(slow.JobID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// The queued job was promoted; cancel it too so the daemon can
	// drain.
	if _, err := c.Cancel(slow.JobID + 1); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
}

// TestErrcodeDrainingOverWire verifies the draining rejection — the
// other fast-reject path — survives the wire.
func TestErrcodeDrainingOverWire(t *testing.T) {
	c, d := startDaemonOn(t, daemon.Config{Mode: daemon.ModeSim, Platform: workload.Meteor(2), Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(taskXML, "", "", nil)
	if !errors.Is(err, daemon.ErrDraining) {
		t.Errorf("Submit while draining: got %v, want ErrDraining", err)
	}
	if errcode.Code(err) != "draining" {
		t.Errorf("code %q, want draining", errcode.Code(err))
	}
}
