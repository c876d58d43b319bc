package daemon_test

// RPC-level acceptance test for the job scheduler: a live-mode daemon
// with -max-concurrent-jobs=2 -queue-depth=2 semantics, driven entirely
// through the client as a user would, down to errors.Is on the decoded
// sentinel after the wire has flattened the error to a string.

import (
	"errors"
	"net"
	"testing"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	"apstdv/internal/live"
)

// slowTask is sized so a job runs for minutes unless cancelled: the
// workers below burn 100M loop iterations per unit.
const slowTask = `<task executable="app" input="big">
 <divisibility input="big" method="callback" load="5000" callback="cb" algorithm="simple-1" probe_load="1"/>
</task>`

func TestSchedulerAcceptanceLive(t *testing.T) {
	// Three real workers; cap 2 means the two running jobs lease
	// disjoint subsets of them.
	var conns []live.WorkerConn
	for i := 0; i < 3; i++ {
		svc := live.NewWorkerService(100_000_000, 1)
		addr, stop, err := live.Serve(svc)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		conns = append(conns, live.WorkerConn{Addr: addr})
	}
	d, err := daemon.New(daemon.Config{
		Mode:              daemon.ModeLive,
		LiveWorkers:       conns,
		MaxConcurrentJobs: 2,
		QueueDepth:        2,
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
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Five submissions against cap 2 / depth 2: two run, two queue
	// (the high-priority one at the head), the fifth is rejected.
	submit := func(prio string) daemon.SubmitReply {
		t.Helper()
		reply, err := c.Submit(slowTask, "", prio, nil)
		if err != nil {
			t.Fatalf("submit(%q): %v", prio, err)
		}
		return reply
	}
	j1 := submit("")
	j2 := submit("")
	j3 := submit("low")
	j4 := submit("high")
	if j1.State != daemon.JobRunning || j2.State != daemon.JobRunning {
		t.Fatalf("first two jobs %s/%s, want both running", j1.State, j2.State)
	}
	if j3.State != daemon.JobQueued || j4.State != daemon.JobQueued {
		t.Fatalf("jobs 3/4 %s/%s, want both queued", j3.State, j4.State)
	}
	_, err = c.Submit(slowTask, "", "", nil)
	if !errors.Is(err, daemon.ErrQueueFull) {
		t.Fatalf("fifth submit err = %v, want errors.Is ErrQueueFull across the RPC boundary", err)
	}

	// The jobs listing shows the whole picture, priority before FIFO.
	listing, err := c.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs := listing.Jobs
	if len(jobs) != 5 {
		t.Fatalf("listed %d jobs, want 5 (including the rejected one)", len(jobs))
	}
	if got := jobs[4].State; got != daemon.JobRejected {
		t.Errorf("fifth job state %s, want rejected", got)
	}
	high, _ := c.Status(j4.JobID)
	low, _ := c.Status(j3.JobID)
	if high.QueuePos != 1 || low.QueuePos != 2 {
		t.Errorf("queue positions high=%d low=%d, want 1 and 2", high.QueuePos, low.QueuePos)
	}

	// The two running jobs hold disjoint, non-empty worker leases.
	r1, _ := c.Status(j1.JobID)
	r2, _ := c.Status(j2.JobID)
	if len(r1.Leased) == 0 || len(r2.Leased) == 0 {
		t.Fatalf("running jobs leased %v / %v, want both non-empty", r1.Leased, r2.Leased)
	}
	held := map[int]bool{}
	for _, w := range r1.Leased {
		held[w] = true
	}
	for _, w := range r2.Leased {
		if held[w] {
			t.Fatalf("worker %d leased by both running jobs (%v and %v)", w, r1.Leased, r2.Leased)
		}
	}

	// Cancelling a running job releases its lease and promotes the
	// high-priority queue head into the freed slot.
	if _, err := c.Cancel(j1.JobID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, j1.JobID, daemon.JobCancelled)
	waitForState(t, c, j4.JobID, daemon.JobRunning)
	cancelled, _ := c.Status(j1.JobID)
	if len(cancelled.Leased) != 0 {
		t.Errorf("cancelled job still holds leases %v", cancelled.Leased)
	}
	promoted, _ := c.Status(j4.JobID)
	if len(promoted.Leased) == 0 {
		t.Error("promoted job has no worker lease")
	}
	for _, w := range promoted.Leased {
		for _, held := range r2.Leased {
			if w == held {
				t.Errorf("promoted job leased worker %d still held by job %d", w, j2.JobID)
			}
		}
	}

	// Tear down: cancel everything still active and wait for quiescence.
	for _, id := range []int{j2.JobID, j3.JobID, j4.JobID} {
		if _, err := c.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{j2.JobID, j3.JobID, j4.JobID} {
		waitForState(t, c, id, daemon.JobCancelled)
	}
	d.Wait()
}

func waitForState(t *testing.T, c *client.Client, jobID int, want daemon.JobState) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		job, err := c.Status(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if job.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	job, _ := c.Status(jobID)
	t.Fatalf("job %d stuck in %s (err %q), want %s", jobID, job.State, job.Err, want)
}
