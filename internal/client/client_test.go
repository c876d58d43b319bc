package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/errcode"
	"apstdv/internal/obs"
	"apstdv/internal/transport"
	"apstdv/internal/workload"
)

// waitDone adapts the context-based WaitDone to the timeout style the
// tests use.
func waitDone(c *Client, jobID int, timeout, poll time.Duration) (daemon.Job, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.WaitDone(ctx, jobID, poll)
}

const taskXML = `<task executable="app" input="big">
 <divisibility input="big" method="callback" load="200" callback="cb" algorithm="simple-1"/>
</task>`

func startDaemon(t *testing.T) *Client {
	t.Helper()
	c, _ := startDaemonOn(t, daemon.Config{
		Mode:     daemon.ModeSim,
		Platform: workload.Meteor(2),
		Seed:     1,
	})
	return c
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to a closed port succeeded")
	}
}

func TestSubmitStatusReportFlow(t *testing.T) {
	c := startDaemon(t)
	reply, err := c.Submit(taskXML, "", "", &daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 100})
	if err != nil {
		t.Fatal(err)
	}
	job, err := waitDone(c, reply.JobID, 5*time.Second, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != daemon.JobDone {
		t.Fatalf("job %s: %s", job.State, job.Err)
	}
	rep, err := c.Report(reply.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary == "" || rep.CSV == "" || rep.Gantt == "" {
		t.Error("report incomplete")
	}
	listing, err := c.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs := listing.Jobs
	if len(jobs) != 1 || jobs[0].ID != reply.JobID {
		t.Errorf("jobs list: %v", jobs)
	}
	names, err := c.Algorithms()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 5 {
		t.Errorf("algorithm list too short: %v", names)
	}
}

func TestWaitDoneTimeout(t *testing.T) {
	c := startDaemon(t)
	// Job 999 does not exist: WaitDone must surface the RPC error.
	if _, err := waitDone(c, 999, 100*time.Millisecond, 10*time.Millisecond); err == nil {
		t.Error("WaitDone on unknown job succeeded")
	}
}

func TestStatusErrorPropagates(t *testing.T) {
	c := startDaemon(t)
	if _, err := c.Status(42); err == nil {
		t.Error("status of unknown job succeeded")
	}
	if _, err := c.Report(42); err == nil {
		t.Error("report of unknown job succeeded")
	}
}

// TestPollingSurvivesOverloadShedding pins that the polling loops ride
// out transport.ErrOverloaded: the server sends it before any decode or
// handler runs, so a shed poll says nothing about the job. The frame
// server has one worker and a one-deep queue, both held by a blocking
// extra method, so every poll is shed until the hold is released; the
// follow must then deliver every event exactly once in seq order and
// return nil, and WaitDone must return the terminal job.
func TestPollingSurvivesOverloadShedding(t *testing.T) {
	d, err := daemon.New(daemon.Config{Mode: daemon.ModeSim, Platform: workload.Meteor(2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewTransportMetrics(obs.NewRegistry(), "server")
	srv := d.NewFrameServer(transport.ServerConfig{Workers: 1, QueueDepth: 1, Metrics: metrics})
	const methodHold = 1000
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.Handle(methodHold, func(_ transport.TraceContext, _ *transport.Dec, b []byte) ([]byte, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return b, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Run a job to completion first, so its event stream is final.
	reply, err := c.Submit(taskXML, "", "", &daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if job, err := waitDone(c, reply.JobID, 5*time.Second, time.Millisecond); err != nil || job.State != daemon.JobDone {
		t.Fatalf("job: %+v, %v", job, err)
	}
	want, _, _, err := c.Events(reply.JobID, -1)
	if err != nil || len(want) == 0 {
		t.Fatalf("events: %d, %v", len(want), err)
	}

	// Saturate the server: one hold occupies the worker; of the next
	// two, one fills the queue and the other is shed — which proves the
	// queue is full, and it stays full while the worker is held.
	holder, err := transport.Dial(ln.Addr().String(), transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { holder.Close() })
	held := make(chan error, 3)
	hold := func() { held <- holder.Call(methodHold, nil, nil) }
	go hold()
	<-entered
	go hold()
	go hold()
	if err := errcode.Decode(<-held); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("third hold: got %v, want ErrOverloaded", err)
	}
	shedBefore := metrics.Overloaded.Value()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got []obs.Event
	followed := make(chan error, 1)
	go func() {
		followed <- c.FollowEventsFrom(ctx, reply.JobID, -1, time.Millisecond, func(ev obs.Event) { got = append(got, ev) })
	}()
	type waited struct {
		job daemon.Job
		err error
	}
	waitedCh := make(chan waited, 1)
	go func() {
		job, err := c.WaitDone(ctx, reply.JobID, time.Millisecond)
		waitedCh <- waited{job, err}
	}()
	// Release only after polls have been shed (each loop's first poll
	// lands on the saturated server).
	for metrics.Overloaded.Value() < shedBefore+3 {
		select {
		case err := <-followed:
			t.Fatalf("follow ended by a shed poll: %v", err)
		case <-ctx.Done():
			t.Fatal("no poll was shed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(release)

	if err := <-followed; err != nil {
		t.Fatalf("follow ended by a shed poll: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("followed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("event %d: seq %d, want %d", i, got[i].Seq, want[i].Seq)
		}
	}
	if w := <-waitedCh; w.err != nil || w.job.State != daemon.JobDone {
		t.Fatalf("WaitDone across shed polls: %+v, %v", w.job, w.err)
	}
}
