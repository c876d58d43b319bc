package daemon

// The daemon as a checked state machine: checkLocked asserts what the
// job collections promise, and TestJobCollectionsInvariant runs it after
// every step of seeded operation sequences driven through the runFn
// seam — submissions at each class, cancellations of queued, running
// and terminal jobs, runs that finish, fail or panic, shedding at queue
// depth, a lowered payload budget and a Shutdown.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"apstdv/internal/workload"
)

// terminal reports whether s is a state a job never leaves.
func terminal(s JobState) bool {
	return s == JobDone || s == JobFailed || s == JobCancelled || s == JobRejected
}

// checkLocked returns the first broken invariant of the job
// collections, nil when they all hold; seen carries each job's first
// terminal state across calls. Caller holds d.mu.
func checkLocked(d *Daemon, seen map[int]JobState) error {
	where := map[*Job]string{}
	place := func(j *Job, in string) error {
		if prev, ok := where[j]; ok {
			return fmt.Errorf("job %d is in both %s and %s", j.ID, prev, in)
		}
		where[j] = in
		return nil
	}
	for i, p := range d.queue {
		if err := place(p.job, "queue"); err != nil {
			return err
		}
		if p.job.State != JobQueued {
			return fmt.Errorf("queue[%d] is job %d in state %s", i, p.job.ID, p.job.State)
		}
		if i > 0 {
			q := d.queue[i-1].job
			if r, s := classIndex(q.Priority), classIndex(p.job.Priority); r > s || r == s && q.ID >= p.job.ID {
				return fmt.Errorf("queue[%d] (job %d, %s) dispatches before queue[%d] (job %d, %s)", i-1, q.ID, q.Priority, i, p.job.ID, p.job.Priority)
			}
		}
		if pos := d.summaryLocked(p.job).QueuePos; pos != i+1 {
			return fmt.Errorf("job %d at queue index %d reports QueuePos %d", p.job.ID, i, pos)
		}
	}
	for _, p := range d.running {
		if err := place(p.job, "running"); err != nil {
			return err
		}
		if p.job.State != JobRunning {
			return fmt.Errorf("running job %d is in state %s", p.job.ID, p.job.State)
		}
	}
	if d.stripped < 0 || d.stripped > len(d.retired) {
		return fmt.Errorf("payload cursor %d outside the %d retired jobs", d.stripped, len(d.retired))
	}
	held := 0
	for i, j := range d.retired {
		if err := place(j, "retired"); err != nil {
			return err
		}
		if !terminal(j.State) {
			return fmt.Errorf("retired job %d is in state %s", j.ID, j.State)
		}
		if i < d.stripped && (j.events != nil || j.tr != nil || j.payload != 0) {
			return fmt.Errorf("job %d before the payload cursor (%d of %d) still holds a payload", j.ID, d.stripped, len(d.retired))
		}
		held += j.payload
	}
	if held != d.payloadSize {
		return fmt.Errorf("retired jobs hold %d payload bytes, the daemon counts %d", held, d.payloadSize)
	}
	// The budget never strips the newest payload: the last retired job
	// that had an event stream (fast rejections have none) keeps it.
	for i := len(d.retired) - 1; i >= 0; i-- {
		if j := d.retired[i]; j.nextSeq > 0 {
			if j.events == nil {
				return fmt.Errorf("job %d, the newest retired job with events, was stripped", j.ID)
			}
			break
		}
	}
	for i, j := range d.jobs {
		if i > 0 && d.jobs[i-1].ID >= j.ID {
			return fmt.Errorf("jobs[%d] has ID %d after ID %d", i, j.ID, d.jobs[i-1].ID)
		}
		if _, ok := where[j]; !ok {
			return fmt.Errorf("retained job %d (%s) is in none of queue, running and retired", j.ID, j.State)
		}
		delete(where, j)
		if j.State != JobQueued && d.summaryLocked(j).QueuePos != 0 {
			return fmt.Errorf("job %d in state %s reports a queue position", j.ID, j.State)
		}
		if s, ok := seen[j.ID]; ok && s != j.State {
			return fmt.Errorf("job %d left terminal state %s for %s", j.ID, s, j.State)
		}
		if terminal(j.State) {
			seen[j.ID] = j.State
		}
	}
	for j, in := range where {
		return fmt.Errorf("job %d in %s is not retained in jobs", j.ID, in)
	}
	return nil
}

func TestJobCollectionsInvariant(t *testing.T) {
	for _, c := range []struct {
		seed   uint64
		retain int
	}{{1, 4}, {2, 4}, {3, 0}, {4, 9}} {
		t.Run(fmt.Sprintf("seed=%d/retain=%d", c.seed, c.retain), func(t *testing.T) {
			runInvariantSequence(t, c.seed, c.retain, 300)
		})
	}
}

// runInvariantSequence drives a daemon with two slots and a queue three
// deep through steps seeded operations, then a Shutdown, and checks the
// collections after each.
func runInvariantSequence(t *testing.T, seed uint64, retain, steps int) {
	d, err := New(Config{
		Mode: ModeSim, Platform: workload.Meteor(2), Seed: 1,
		MaxConcurrentJobs: 2, QueueDepth: 3, RetainJobs: retain,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &gateRunner{}
	d.runFn = g.run
	rng := rand.New(rand.NewPCG(seed, 0))
	seen := map[int]JobState{}
	stripped := false // some check found a stripped job
	check := func(step int, op string) {
		t.Helper()
		d.mu.Lock()
		err := checkLocked(d, seen)
		stripped = stripped || d.stripped > 0
		d.mu.Unlock()
		if err != nil {
			t.Fatalf("after step %d (%s): %v", step, op, err)
		}
	}
	// pick returns a random job of a collection, or 0 when it is empty.
	pick := func(ids func() []int) int {
		d.mu.Lock()
		defer d.mu.Unlock()
		if l := ids(); len(l) > 0 {
			return l[rng.IntN(len(l))]
		}
		return 0
	}
	queued := func() (ids []int) {
		for _, p := range d.queue {
			ids = append(ids, p.job.ID)
		}
		return ids
	}
	running := func() (ids []int) {
		for _, p := range d.running {
			ids = append(ids, p.job.ID)
		}
		return ids
	}
	retired := func() (ids []int) {
		for _, j := range d.retired {
			ids = append(ids, j.ID)
		}
		return ids
	}
	// ended waits until a job is terminal or evicted.
	ended := func(id int) {
		waitFor(t, fmt.Sprintf("job %d to end", id), func() bool {
			d.mu.Lock()
			defer d.mu.Unlock()
			j := d.jobLocked(id)
			return j == nil || terminal(j.State)
		})
	}
	cancel := func(id int) {
		var reply CancelReply
		if err := d.Cancel(CancelArgs{JobID: id}, &reply); err != nil {
			t.Fatalf("cancel job %d: %v", id, err)
		}
	}
	ops := []string{"submit", "submit", "submit", "cancel-queued", "cancel-running",
		"cancel-terminal", "finish", "finish", "fail", "panic", "lower-budget"}
	for step := 0; step < steps; step++ {
		op := ops[rng.IntN(len(ops))]
		switch op {
		case "submit":
			// A full queue sheds the submission: that is the step's
			// rejected outcome, not a failure.
			var reply SubmitReply
			err := d.Submit(SubmitArgs{TaskXML: schedTask, Priority: classes[rng.IntN(len(classes))]}, &reply)
			if err != nil && !errors.Is(err, ErrQueueFull) {
				t.Fatalf("step %d: submit: %v", step, err)
			}
		case "cancel-queued":
			if id := pick(queued); id != 0 {
				cancel(id)
			}
		case "cancel-running":
			if id := pick(running); id != 0 {
				cancel(id)
				ended(id)
			}
		case "cancel-terminal":
			if id := pick(retired); id != 0 {
				cancel(id)
			}
		case "finish", "fail", "panic":
			if id := pick(running); id != 0 {
				g.end(id, op)
				ended(id)
			}
		case "lower-budget":
			d.mu.Lock()
			d.payloadMax = min(d.payloadMax, 1+rng.IntN(64<<10))
			d.mu.Unlock()
		}
		check(step, op)
	}
	ctx, stop := context.WithCancel(context.Background())
	stop()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	check(steps, "shutdown")
	var reply SubmitReply
	if err := d.Submit(SubmitArgs{TaskXML: schedTask}, &reply); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown: %v, want a draining rejection", err)
	}
	check(steps+1, "submit after shutdown")
	d.mu.Lock()
	defer d.mu.Unlock()
	if last := d.retired[len(d.retired)-1]; len(d.queue) != 0 || len(d.running) != 0 || last.State != JobRejected {
		t.Errorf("after shutdown: %d queued, %d running, newest retired job %s", len(d.queue), len(d.running), last.State)
	}
	// The sequence reached every terminal state and the payload cursor.
	ends := map[JobState]bool{}
	for _, s := range seen {
		ends[s] = true
	}
	if len(ends) != 4 || !stripped {
		t.Errorf("the sequence ended jobs only as %v (stripped: %v); want every terminal state and a strip", ends, stripped)
	}
}
