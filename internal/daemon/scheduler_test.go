package daemon

// In-package scheduler tests: they override the daemon's runFn seam
// with a gate-controlled fake, so admission, priority order,
// cancellation and drain are exercised deterministically without a
// backend. The RPC-level acceptance test lives in the external
// daemon_test package.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"apstdv/internal/live"
	"apstdv/internal/obs"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

const schedTask = `<task executable="app" input="big">
 <divisibility input="big" method="callback" load="100" callback="cb" algorithm="simple-1"/>
</task>`

// gateRunner replaces runFn: each job blocks until released (or its
// context is cancelled) and the start order is recorded. A released job
// finishes, or fails or panics as end scripted it.
type gateRunner struct {
	mu       sync.Mutex
	order    []int
	gates    map[int]chan struct{}
	outcomes map[int]string
}

func (g *gateRunner) gate(id int) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gates == nil {
		g.gates = map[int]chan struct{}{}
	}
	ch, ok := g.gates[id]
	if !ok {
		ch = make(chan struct{})
		g.gates[id] = ch
	}
	return ch
}

func (g *gateRunner) run(ctx context.Context, p *pendingJob) (*trace.Trace, error) {
	g.mu.Lock()
	g.order = append(g.order, p.job.ID)
	g.mu.Unlock()
	select {
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	case <-g.gate(p.job.ID):
		g.mu.Lock()
		outcome := g.outcomes[p.job.ID]
		g.mu.Unlock()
		switch outcome {
		case "fail":
			return nil, errors.New("scripted failure")
		case "panic":
			panic("scripted panic")
		}
		return trace.New("fake", "fake"), nil
	}
}

func (g *gateRunner) release(id int) { close(g.gate(id)) }

// end releases a job to the outcome given: "finish", "fail" or "panic".
func (g *gateRunner) end(id int, outcome string) {
	g.mu.Lock()
	if g.outcomes == nil {
		g.outcomes = map[int]string{}
	}
	g.outcomes[id] = outcome
	g.mu.Unlock()
	g.release(id)
}

func (g *gateRunner) started() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.order...)
}

// newSchedDaemon builds a sim daemon with the gate runner installed.
func newSchedDaemon(t *testing.T, maxJobs, depth int) (*Daemon, *gateRunner) {
	t.Helper()
	d, err := New(Config{
		Mode: ModeSim, Platform: workload.Meteor(2), Seed: 1,
		MaxConcurrentJobs: maxJobs, QueueDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &gateRunner{}
	d.runFn = g.run
	return d, g
}

func submitJob(t *testing.T, d *Daemon, prio string) (SubmitReply, error) {
	t.Helper()
	var reply SubmitReply
	err := d.Submit(SubmitArgs{TaskXML: schedTask, Priority: prio}, &reply)
	return reply, err
}

func jobState(t *testing.T, d *Daemon, id int) Job {
	t.Helper()
	var reply StatusReply
	if err := d.Status(StatusArgs{JobID: id}, &reply); err != nil {
		t.Fatal(err)
	}
	return reply.Job
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdmissionCapQueueReject(t *testing.T) {
	d, g := newSchedDaemon(t, 2, 2)
	var ids []int
	for i := 0; i < 4; i++ {
		reply, err := submitJob(t, d, "")
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, reply.JobID)
		want := JobRunning
		if i >= 2 {
			want = JobQueued
		}
		if reply.State != want {
			t.Errorf("job %d admitted as %s, want %s", reply.JobID, reply.State, want)
		}
	}
	// The fifth submission overflows the depth-2 queue.
	_, err := submitJob(t, d, "")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	// The rejection is recorded as a terminal job, visible in listings.
	var list ListJobsReply
	if err := d.ListJobs(ListJobsArgs{}, &list); err != nil {
		t.Fatal(err)
	}
	if n := len(list.Jobs); n != 5 {
		t.Fatalf("listed %d jobs, want 5", n)
	}
	rejected := list.Jobs[4]
	if rejected.State != JobRejected || rejected.Code != "queue_full" {
		t.Errorf("overflow job = %s code %q, want rejected/queue_full", rejected.State, rejected.Code)
	}
	// Finishing a running job pulls the queue head into the free slot.
	// Both admitted runners must have reached the gate first: started()
	// records goroutine execution order, and a runner spawned at
	// admission can otherwise lose the CPU to the promoted queue head.
	waitFor(t, "admitted jobs to start", func() bool { return len(g.started()) == 2 })
	g.release(ids[0])
	waitFor(t, "queued job to start", func() bool { return len(g.started()) == 3 })
	if got := g.started()[2]; got != ids[2] {
		t.Errorf("freed slot went to job %d, want %d", got, ids[2])
	}
	for _, id := range ids[1:] {
		g.release(id)
	}
	d.Wait()
	if job := jobState(t, d, ids[0]); job.State != JobDone {
		t.Errorf("job %d = %s, want done", ids[0], job.State)
	}
}

func TestPriorityThenFIFO(t *testing.T) {
	d, g := newSchedDaemon(t, 1, 0)
	a, _ := submitJob(t, d, "")
	waitFor(t, "first job to start", func() bool { return len(g.started()) == 1 })
	b, _ := submitJob(t, d, PriorityLow)
	c, _ := submitJob(t, d, PriorityNormal)
	dd, _ := submitJob(t, d, PriorityHigh)
	e, _ := submitJob(t, d, PriorityHigh)

	// Queue positions reflect the dispatch order: high before normal
	// before low, FIFO within high.
	if pos := jobState(t, d, dd.JobID).QueuePos; pos != 1 {
		t.Errorf("first high job at position %d, want 1", pos)
	}
	if pos := jobState(t, d, b.JobID).QueuePos; pos != 4 {
		t.Errorf("low job at position %d, want 4", pos)
	}

	for i, id := range []int{a.JobID, dd.JobID, e.JobID, c.JobID, b.JobID} {
		g.release(id)
		waitFor(t, "next job to start", func() bool { return len(g.started()) >= i+1 })
	}
	d.Wait()
	want := []int{a.JobID, dd.JobID, e.JobID, c.JobID, b.JobID}
	got := g.started()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("start order %v, want %v (priority then FIFO)", got, want)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	d, g := newSchedDaemon(t, 1, 0)
	a, _ := submitJob(t, d, "")
	b, _ := submitJob(t, d, "")
	var reply CancelReply
	if err := d.Cancel(CancelArgs{JobID: b.JobID}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.State != JobCancelled {
		t.Errorf("cancel of queued job left it %s, want cancelled immediately", reply.State)
	}
	job := jobState(t, d, b.JobID)
	if job.State != JobCancelled || job.Code != "job_cancelled" {
		t.Errorf("job = %s code %q, want cancelled/job_cancelled", job.State, job.Code)
	}
	g.release(a.JobID)
	d.Wait()
	if got := g.started(); len(got) != 1 {
		t.Errorf("cancelled queued job ran anyway: started %v", got)
	}
	if err := d.Cancel(CancelArgs{JobID: 99}, &reply); !errors.Is(err, ErrJobNotFound) {
		t.Errorf("cancel of unknown job err = %v, want ErrJobNotFound", err)
	}
}

func TestCancelRunningStartsNext(t *testing.T) {
	d, g := newSchedDaemon(t, 1, 0)
	a, _ := submitJob(t, d, "")
	waitFor(t, "first job to start", func() bool { return len(g.started()) == 1 })
	b, _ := submitJob(t, d, "")
	var reply CancelReply
	if err := d.Cancel(CancelArgs{JobID: a.JobID}, &reply); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cancelled job to unwind and next to start", func() bool {
		return jobState(t, d, a.JobID).State == JobCancelled && len(g.started()) == 2
	})
	if got := g.started()[1]; got != b.JobID {
		t.Errorf("slot freed by cancellation went to job %d, want %d", got, b.JobID)
	}
	if job := jobState(t, d, a.JobID); job.Code != "job_cancelled" {
		t.Errorf("cancelled job code = %q, want job_cancelled", job.Code)
	}
	g.release(b.JobID)
	d.Wait()
}

func TestShutdownDrainsAndCancels(t *testing.T) {
	d, g := newSchedDaemon(t, 1, 0)
	a, _ := submitJob(t, d, "")
	waitFor(t, "first job to start", func() bool { return len(g.started()) == 1 })
	b, _ := submitJob(t, d, "")

	// The running job ignores its deadline, so Shutdown has to cancel
	// it after ctx expires; the queued job is cancelled immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if job := jobState(t, d, b.JobID); job.State != JobCancelled || job.Code != "draining" {
		t.Errorf("queued job = %s code %q, want cancelled/draining", job.State, job.Code)
	}
	if job := jobState(t, d, a.JobID); job.State != JobCancelled {
		t.Errorf("running job = %s, want cancelled after drain deadline", job.State)
	}
	if _, err := submitJob(t, d, ""); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining err = %v, want ErrDraining", err)
	}
}

func TestJobLifecycleEvents(t *testing.T) {
	d, g := newSchedDaemon(t, 1, 0)
	a, _ := submitJob(t, d, PriorityHigh)
	waitFor(t, "job to start", func() bool { return len(g.started()) == 1 })
	var reply CancelReply
	if err := d.Cancel(CancelArgs{JobID: a.JobID}, &reply); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to unwind", func() bool { return jobState(t, d, a.JobID).State == JobCancelled })
	var evs EventsReply
	if err := d.Events(EventsArgs{JobID: a.JobID, AfterSeq: -1}, &evs); err != nil {
		t.Fatal(err)
	}
	wantTypes := []obs.EventType{obs.JobQueued, obs.JobStarted, obs.JobCancelled}
	if len(evs.Events) != len(wantTypes) {
		t.Fatalf("got %d events %+v, want %d", len(evs.Events), evs.Events, len(wantTypes))
	}
	for i, ev := range evs.Events {
		if ev.Type != wantTypes[i] {
			t.Errorf("event %d type = %s, want %s", i, ev.Type, wantTypes[i])
		}
		if ev.Seq != int64(i) {
			t.Errorf("event %d seq = %d, want %d (dense splice)", i, ev.Seq, i)
		}
		if ev.Class != PriorityHigh {
			t.Errorf("event %d class = %q, want high", i, ev.Class)
		}
	}
}

// TestLiveLeaseAssignment pins the worker-sharing policy without a real
// cluster: with cap 2 over 4 workers, each job leases a disjoint pair,
// and a cancelled job's workers return to the pool.
func TestLiveLeaseAssignment(t *testing.T) {
	workers := make([]live.WorkerConn, 4)
	d, err := New(Config{
		Mode: ModeLive, LiveWorkers: workers,
		MaxConcurrentJobs: 2, QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &gateRunner{}
	d.runFn = g.run

	a, _ := submitJob(t, d, "")
	b, _ := submitJob(t, d, "")
	waitFor(t, "both jobs to start", func() bool { return len(g.started()) == 2 })
	la := jobState(t, d, a.JobID).Leased
	lb := jobState(t, d, b.JobID).Leased
	if len(la) != 2 || la[0] != 0 || la[1] != 1 {
		t.Errorf("job A leased %v, want [0 1]", la)
	}
	if len(lb) != 2 || lb[0] != 2 || lb[1] != 3 {
		t.Errorf("job B leased %v, want [2 3]", lb)
	}
	var reply CancelReply
	if err := d.Cancel(CancelArgs{JobID: a.JobID}, &reply); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leases to be released", func() bool { return freeWorkers(d) == 2 })
	if got := jobState(t, d, a.JobID).Leased; len(got) != 0 {
		t.Errorf("cancelled job still shows leases %v", got)
	}
	c, _ := submitJob(t, d, "")
	waitFor(t, "third job to start", func() bool { return len(g.started()) == 3 })
	if lc := jobState(t, d, c.JobID).Leased; len(lc) != 2 || lc[0] != 0 || lc[1] != 1 {
		t.Errorf("job C leased %v, want the recycled [0 1]", lc)
	}
	g.release(b.JobID)
	g.release(c.JobID)
	d.Wait()
}
