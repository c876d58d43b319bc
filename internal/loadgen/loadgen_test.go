package loadgen

import (
	"context"
	"net"
	"testing"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/workload"
)

// TestRunAgainstInProcessDaemon smoke-tests the full measurement
// loop: generate a short burst, check the arrival accounting balances,
// and check the drain left the daemon idle. The rate is modest on
// purpose — this pins correctness of the harness, not the numbers it
// reports.
func TestRunAgainstInProcessDaemon(t *testing.T) {
	p, err := workload.ParsePlatform("das2:4")
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{
		Mode: daemon.ModeSim, Platform: p, Seed: 1,
		MaxConcurrentJobs: 1, QueueDepth: 8, RetainJobs: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go d.ServeFrame(ln)
	defer d.Shutdown(context.Background())
	res, err := Run(ln.Addr().String(), Config{
		Conns: 1,
		Rate:  500, Duration: 300 * time.Millisecond,
		MaxOutstanding: 64, Seed: 1,
		TaskXML: BenchSpec(5),
		SimApp:  &daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.Accepted == 0 {
		t.Fatalf("no load generated: %+v", res)
	}
	if got := res.Shed + res.Accepted + res.Rejected + res.Errors; got != res.Offered {
		t.Errorf("arrival accounting: shed+accepted+rejected+errors = %d, offered = %d", got, res.Offered)
	}
	if res.Errors != 0 {
		t.Errorf("%d untyped errors against a healthy daemon", res.Errors)
	}
	if res.Submit.N != res.Accepted+res.Rejected {
		t.Errorf("latency samples %d, want accepted+rejected = %d", res.Submit.N, res.Accepted+res.Rejected)
	}
	if res.AcceptedHz <= 0 {
		t.Errorf("accepted rate %v, want > 0", res.AcceptedHz)
	}
}

func TestPercentilesEmpty(t *testing.T) {
	if p := percentiles(nil); p.N != 0 || p.Max != 0 {
		t.Fatalf("percentiles(nil) = %+v, want zero", p)
	}
}
