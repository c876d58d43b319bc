package daemon

// Co-scheduling policy tests at the scheduler seam: a gate-controlled
// runFn holds jobs in the running state so share grants, revisions and
// releases can be observed deterministically.

import (
	"context"
	"fmt"
	"testing"

	"apstdv/internal/grid"
	"apstdv/internal/live"
	"apstdv/internal/obs"
	"apstdv/internal/trace"
)

// coschedTask builds a task XML with the given total load, so srpt's
// load-weighted split is testable.
func coschedTask(load float64) string {
	return fmt.Sprintf(`<task executable="app" input="big">
 <divisibility input="big" method="callback" load="%g" callback="cb" algorithm="simple-1"/>
</task>`, load)
}

// newCoschedDaemon builds a live-mode daemon (4 fake workers, cap 2)
// with the given policy and a gate runner installed.
func newCoschedDaemon(t *testing.T, policy string) (*Daemon, *gateRunner) {
	t.Helper()
	d, err := New(Config{
		Mode: ModeLive, LiveWorkers: make([]live.WorkerConn, 4),
		MaxConcurrentJobs: 2, QueueDepth: 2, CoschedPolicy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &gateRunner{}
	d.runFn = g.run
	return d, g
}

func submitLoad(t *testing.T, d *Daemon, load float64) SubmitReply {
	t.Helper()
	var reply SubmitReply
	if err := d.Submit(SubmitArgs{TaskXML: coschedTask(load)}, &reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// occupancy reads the daemon's per-worker allocation under d.mu.
func occupancy(d *Daemon) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.occupancyLocked()
}

// freeWorkers counts the workers no running job holds a share of.
func freeWorkers(d *Daemon) int {
	n := 0
	for _, occ := range occupancy(d) {
		if occ <= shareEpsilon {
			n++
		}
	}
	return n
}

// occupancyOK asserts no worker is oversubscribed.
func occupancyOK(t *testing.T, d *Daemon) {
	t.Helper()
	for w, occ := range occupancy(d) {
		if occ > 1+1e-9 {
			t.Fatalf("worker %d oversubscribed: occupancy %g", w, occ)
		}
	}
}

// TestCoschedRejectsUnknownPolicy pins config validation.
func TestCoschedRejectsUnknownPolicy(t *testing.T) {
	_, err := New(Config{
		Mode: ModeLive, LiveWorkers: make([]live.WorkerConn, 2),
		CoschedPolicy: "lottery",
	})
	if err == nil {
		t.Fatal("New accepted cosched policy \"lottery\"")
	}
}

// TestCoschedFairSharesAndCancellation pins the fair policy end to end:
// both running jobs span the whole pool at half share each; cancelling
// one promptly returns its capacity to the survivor; the freed slot
// admits the next job and the pool re-splits.
func TestCoschedFairSharesAndCancellation(t *testing.T) {
	d, g := newCoschedDaemon(t, CoschedFair)
	a := submitLoad(t, d, 100)
	b := submitLoad(t, d, 100)
	waitFor(t, "both jobs to start", func() bool { return len(g.started()) == 2 })

	for _, id := range []int{a.JobID, b.JobID} {
		j := jobState(t, d, id)
		if len(j.Leased) != 4 {
			t.Fatalf("job %d leased %v, want the whole pool", id, j.Leased)
		}
		for i, s := range j.Shares {
			if s != 0.5 {
				t.Errorf("job %d share[%d] = %g, want 0.5", id, i, s)
			}
		}
	}
	occupancyOK(t, d)

	var reply CancelReply
	if err := d.Cancel(CancelArgs{JobID: a.JobID}, &reply); err != nil {
		t.Fatal(err)
	}
	// The cancelled job's capacity goes back to the survivor as soon as
	// its run goroutine unwinds — no waiting for the peer to finish.
	waitFor(t, "survivor to get full shares", func() bool {
		j := jobState(t, d, b.JobID)
		return len(j.Shares) == 4 && j.Shares[0] == 1
	})
	if got := jobState(t, d, a.JobID).Shares; got != nil {
		t.Errorf("cancelled job still shows shares %v", got)
	}
	occupancyOK(t, d)

	c := submitLoad(t, d, 100)
	waitFor(t, "third job to start", func() bool { return len(g.started()) == 3 })
	waitFor(t, "pool to re-split", func() bool {
		j := jobState(t, d, c.JobID)
		return len(j.Shares) == 4 && j.Shares[0] == 0.5
	})
	occupancyOK(t, d)
	g.release(b.JobID)
	g.release(c.JobID)
	d.Wait()
}

// TestCoschedSRPTWeighting pins the srpt proxy: with one heavy and one
// light job running, the light job (smaller declared load) holds the
// larger fraction on every worker.
func TestCoschedSRPTWeighting(t *testing.T) {
	d, g := newCoschedDaemon(t, CoschedSRPT)
	heavy := submitLoad(t, d, 1000)
	light := submitLoad(t, d, 100)
	waitFor(t, "both jobs to start", func() bool { return len(g.started()) == 2 })

	jh, jl := jobState(t, d, heavy.JobID), jobState(t, d, light.JobID)
	if len(jh.Shares) != 4 || len(jl.Shares) != 4 {
		t.Fatalf("share vectors: heavy %v light %v, want 4 workers each", jh.Shares, jl.Shares)
	}
	for w := range jh.Shares {
		if jl.Shares[w] <= jh.Shares[w] {
			t.Errorf("worker %d: light share %g not above heavy %g",
				w, jl.Shares[w], jh.Shares[w])
		}
	}
	occupancyOK(t, d)
	g.release(heavy.JobID)
	g.release(light.JobID)
	d.Wait()
}

// TestCoschedReshareEventsAndMetrics pins the observability contract:
// every revision bumps apstdv_cosched_reshares_total and lands a
// JobReshared event (carrying the job's effective worker count) in each
// running job's ring, and ListJobs reports the active policy.
func TestCoschedReshareEventsAndMetrics(t *testing.T) {
	d, g := newCoschedDaemon(t, CoschedFair)
	a := submitLoad(t, d, 100)
	b := submitLoad(t, d, 100)
	waitFor(t, "both jobs to start", func() bool { return len(g.started()) == 2 })
	g.release(a.JobID)
	waitFor(t, "first job to finish", func() bool {
		return jobState(t, d, a.JobID).State == JobDone
	})
	g.release(b.JobID)
	d.Wait()

	// a's start, b's start, a's release. The last departure leaves
	// nobody to revise for, so b's own release does not count.
	if got := d.coschedReshares.Value(); got != 3 {
		t.Errorf("cosched reshares counter = %g, want 3", got)
	}
	var evs EventsReply
	if err := d.Events(EventsArgs{JobID: b.JobID, AfterSeq: -1}, &evs); err != nil {
		t.Fatal(err)
	}
	var reshared []obs.Event
	for _, ev := range evs.Events {
		if ev.Type == obs.JobReshared {
			reshared = append(reshared, ev)
		}
	}
	// b sees its own start revision and a's release.
	if len(reshared) != 2 {
		t.Fatalf("job B has %d job_reshared events, want 2: %+v", len(reshared), reshared)
	}
	// At b's start the pool is split two ways: effective workers 2 of 4.
	if reshared[0].Workers != 4 || reshared[0].Size != 2 {
		t.Errorf("first reshare = workers %d size %g, want 4 and 2",
			reshared[0].Workers, reshared[0].Size)
	}
	// After a departs, b spans the whole pool alone.
	if reshared[1].Size != 4 {
		t.Errorf("post-release reshare size = %g, want 4", reshared[1].Size)
	}

	var jobs ListJobsReply
	if err := d.ListJobs(ListJobsArgs{}, &jobs); err != nil {
		t.Fatal(err)
	}
	if jobs.Policy != CoschedFair {
		t.Errorf("ListJobs policy = %q, want fair", jobs.Policy)
	}

	// All shares returned: every worker free, gauges at zero.
	if free := freeWorkers(d); free != 4 {
		t.Errorf("%d workers free after drain, want 4", free)
	}
	for w, gauge := range d.workerShareG {
		if v := gauge.Value(); v != 0 {
			t.Errorf("worker %d share gauge = %g after drain, want 0", w, v)
		}
	}
}

// TestCoschedRefusesOversubscribedRevision pins the per-worker sum ≤ 1
// check: under a policy that grants 0.7 of every worker to every job,
// the revision at the second job's start would put 1.4 on each worker,
// so it is refused and counted, and both jobs keep what they held.
func TestCoschedRefusesOversubscribedRevision(t *testing.T) {
	d, g := newCoschedDaemon(t, CoschedFair)
	d.coschedFn = func(active []grid.MultiJobStatus, workers int, rows [][]float64) {
		for _, row := range rows {
			for w := range row {
				row[w] = 0.7
			}
		}
	}
	a := submitLoad(t, d, 100)
	b := submitLoad(t, d, 100)
	waitFor(t, "both jobs to start", func() bool { return len(g.started()) == 2 })

	if got := d.shareErrors.Value(); got != 1 {
		t.Errorf("share errors counter = %g, want 1", got)
	}
	if got := d.coschedReshares.Value(); got != 1 {
		t.Errorf("cosched reshares counter = %g, want 1 (a's start only)", got)
	}
	ja := jobState(t, d, a.JobID)
	if len(ja.Shares) != 4 {
		t.Fatalf("job A shares %v, want its 0.7 on all 4 workers", ja.Shares)
	}
	for i, s := range ja.Shares {
		if s != 0.7 {
			t.Errorf("job A share[%d] = %g, want 0.7", i, s)
		}
	}
	if got := jobState(t, d, b.JobID).Shares; got != nil {
		t.Errorf("job B shares %v, want none after the refused revision", got)
	}
	occupancyOK(t, d)
	g.release(a.JobID)
	g.release(b.JobID)
	d.Wait()
}

// seqRunner is a gate runner whose jobs write into their rings the way
// execute's engine does, numbering densely from 0: a dispatch, then the
// gate, then two chunk_done events.
type seqRunner struct{ gateRunner }

func (s *seqRunner) run(ctx context.Context, p *pendingJob) (*trace.Trace, error) {
	emit := func(k int64, typ obs.EventType) {
		ev := obs.Event{Seq: k, Type: typ}
		p.ring.EmitPtr(&ev)
	}
	emit(0, obs.Dispatch)
	tr, err := s.gateRunner.run(ctx, p)
	if err != nil {
		return nil, err
	}
	emit(1, obs.ChunkDone)
	emit(2, obs.ChunkDone)
	return tr, nil
}

// TestCoschedReshareKeepsEventSeqUnique pins one cursor per job stream
// under co-scheduling: a second job's arrival appends job_reshared to
// the running first job's ring between its engine's events, and every
// event must still carry its own ascending number, so a follower whose
// cursor sits at the reshare sees both chunk_done events after it.
func TestCoschedReshareKeepsEventSeqUnique(t *testing.T) {
	d, err := New(Config{
		Mode: ModeLive, LiveWorkers: make([]live.WorkerConn, 4),
		MaxConcurrentJobs: 2, QueueDepth: 2, CoschedPolicy: CoschedFair,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &seqRunner{}
	d.runFn = r.run
	a := submitLoad(t, d, 100)
	waitFor(t, "first job to dispatch", func() bool { return len(r.started()) == 1 })
	b := submitLoad(t, d, 100)
	waitFor(t, "second job to start", func() bool { return len(r.started()) == 2 })
	r.release(a.JobID)
	waitFor(t, "first job to finish", func() bool { return jobState(t, d, a.JobID).State == JobDone })

	var all EventsReply
	if err := d.Events(EventsArgs{JobID: a.JobID, AfterSeq: -1}, &all); err != nil {
		t.Fatal(err)
	}
	cursor := int64(-1)
	for i, ev := range all.Events {
		if i > 0 && ev.Seq <= all.Events[i-1].Seq {
			t.Fatalf("event %d (%s) has Seq %d after %d: %+v", i, ev.Type, ev.Seq, all.Events[i-1].Seq, all.Events)
		}
		if ev.Type == obs.JobReshared {
			cursor = ev.Seq // the last reshare: the one the second job caused
		}
	}
	var tail EventsReply
	if err := d.Events(EventsArgs{JobID: a.JobID, AfterSeq: cursor}, &tail); err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, ev := range tail.Events {
		if ev.Type == obs.ChunkDone {
			done++
		}
	}
	if done != 2 {
		t.Fatalf("a follower at the reshare (Seq %d) saw %d chunk_done events, want 2: %+v", cursor, done, all.Events)
	}
	r.release(b.JobID)
	d.Wait()
}
