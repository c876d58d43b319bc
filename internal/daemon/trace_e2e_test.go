package daemon_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/workload"
)

// TestTraceStitchedAcrossWire is the tentpole guarantee: one trace id
// minted in the client stitches client.submit → transport → daemon
// admission/queue/lease → engine execute → per-chunk lifecycle, the ids
// riding the frame header.
func TestTraceStitchedAcrossWire(t *testing.T) {
	col := otrace.New(0)
	d, err := daemon.New(daemon.Config{
		Mode:     daemon.ModeSim,
		Platform: workload.Meteor(2),
		Seed:     1,
		Trace:    col,
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
	ctr := otrace.New(0)
	c, err := client.DialOptions(ln.Addr().String(), client.Options{Tracer: ctr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reply, err := c.Submit(taskXML, "", "", &daemon.SimApp{UnitCost: 0.01, BytesPerUnit: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := waitDone(c, reply.JobID, 10*time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != daemon.JobDone {
		t.Fatalf("job %s: %s", job.State, job.Err)
	}

	// The client's view: one client.submit span rooted at the
	// trace id the client minted.
	var clientTID, clientSpan uint64
	for _, sp := range ctr.Snapshot() {
		if sp.Name == "client.submit" {
			clientTID, clientSpan = sp.Trace, sp.ID
		}
	}
	if clientTID == 0 {
		t.Fatal("client collector recorded no client.submit span")
	}

	trep, err := c.Trace(reply.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if trep.TraceID != clientTID {
		t.Fatalf("daemon trace id %#x, client minted %#x — trace not stitched",
			trep.TraceID, clientTID)
	}
	names := map[string]int{}
	var submitParent uint64
	for _, sp := range trep.Spans {
		if sp.Trace != clientTID {
			t.Fatalf("span %q on trace %#x, want %#x", sp.Name, sp.Trace, clientTID)
		}
		names[sp.Name]++
		if sp.Name == "daemon.submit" {
			submitParent = sp.Parent
		}
	}
	for _, want := range []string{
		"daemon.submit", "submit.parse", "submit.admit",
		"job.queue", "job.lease", "job.execute",
		"chunk", "chunk.transfer", "chunk.compute",
	} {
		if names[want] == 0 {
			t.Errorf("no %q span in job trace (got %v)", want, names)
		}
	}
	if names["rpc.decode"] == 0 {
		t.Errorf("transport server recorded no rpc.decode span")
	}
	if submitParent != clientSpan {
		t.Errorf("daemon.submit parent %#x, want the client.submit span %#x", submitParent, clientSpan)
	}

	ts, err := c.TraceStats()
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Enabled || ts.Recorded == 0 {
		t.Fatalf("trace stats: %+v", ts)
	}
	stages := map[string]bool{}
	for _, s := range ts.Stages {
		stages[s.Stage] = true
	}
	for _, want := range []string{"admission", "queue", "lease", "execute"} {
		if !stages[want] {
			t.Errorf("stage stats missing %q (got %v)", want, ts.Stages)
		}
	}
}

// A fast-rejected submission never reaches the slow path, but its
// trace must still close with a terminal submit.reject span carrying
// the rejection cause.
func TestFastRejectRecordsTerminalSpan(t *testing.T) {
	col := otrace.New(0)
	d, err := daemon.New(daemon.Config{
		Mode:     daemon.ModeSim,
		Platform: workload.Meteor(2),
		Seed:     1,
		Trace:    col,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	var reply daemon.SubmitReply
	err = d.Submit(daemon.SubmitArgs{
		TaskXML: taskXML, TraceID: 0x5151, ParentSpan: 0x7,
		SimApp: &daemon.SimApp{UnitCost: 0.01, BytesPerUnit: 1},
	}, &reply)
	if !errors.Is(err, daemon.ErrDraining) {
		t.Fatalf("submit after shutdown: got %v, want ErrDraining", err)
	}
	found := false
	for _, sp := range col.Snapshot() {
		if sp.Name != "submit.reject" {
			continue
		}
		found = true
		if sp.Trace != 0x5151 || sp.Parent != 0x7 || sp.Err == "" {
			t.Fatalf("malformed reject span: %+v", sp)
		}
	}
	if !found {
		t.Fatal("fast-reject recorded no submit.reject span")
	}
}

// Without a collector the trace RPCs answer with their typed sentinel
// instead of empty data, so clients can tell "off" from "no spans".
func TestTraceRPCWithTracingOff(t *testing.T) {
	d, err := daemon.New(daemon.Config{
		Mode:     daemon.ModeSim,
		Platform: workload.Meteor(2),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var reply daemon.TraceReply
	if err := d.Trace(daemon.TraceArgs{JobID: 1}, &reply); !errors.Is(err, daemon.ErrTracingOff) {
		t.Fatalf("Trace without collector: got %v, want ErrTracingOff", err)
	}
	var stats daemon.TraceStatsReply
	if err := d.TraceStats(daemon.TraceStatsArgs{}, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Enabled {
		t.Fatal("TraceStats reports enabled without a collector")
	}
}
