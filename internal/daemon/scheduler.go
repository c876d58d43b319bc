package daemon

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"apstdv/internal/divide"
	"apstdv/internal/dls"
	"apstdv/internal/errcode"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/trace"
)

// Priority classes, highest first. Admission drains high before normal
// before low; within a class jobs run in submission (FIFO) order, which
// is ID order.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// classes orders the priority names by rank; the queue sorts on rank.
var classes = [...]string{PriorityHigh, PriorityNormal, PriorityLow}

// normalizePriority maps the wire value to a class name ("" defaults to
// normal) or rejects unknown classes.
func normalizePriority(p string) (string, error) {
	if p == "" {
		return PriorityNormal, nil
	}
	for _, c := range classes {
		if p == c {
			return p, nil
		}
	}
	return "", fmt.Errorf("daemon: unknown priority %q (want high, normal or low)", p)
}

// classIndex returns the queue rank of a normalized priority.
func classIndex(p string) int {
	for i, c := range classes {
		if p == c {
			return i
		}
	}
	return len(classes) - 1
}

// pendingJob is a job plus everything needed to run it: the parsed
// algorithm and application, the per-job cancellation context, the
// job's event ring and, while it runs, its execution slot. It exists
// from admission to terminal state, reached through its Job's run
// pointer.
//
// The ring carries one monotonic stream across two emitters: the daemon
// appends its lifecycle events (job_queued, job_started, job_cancelled,
// job_rejected) with Ring.Append, which numbers them after whatever the
// ring has seen, and the engine numbers its run's events densely from
// 0. The ring stores each event under the larger of its own number and
// one past the highest it holds (obs.Ring), so the run's events land
// right after the lifecycle events, and a job_reshared a co-scheduling
// revision appends mid-run pushes every later engine event past it: the
// numbers stay unique. Pollers reading the Events
// RPC therefore see one gap-free cursor across both layers, and each
// event costs one lock: the ring's.
//
// The pendingJob itself is the sink the engine emits into (EmitPtr), so
// a job's events reach its ring and the daemon's shared engine metrics
// without a sink built per job.
type pendingJob struct {
	job       *Job
	alg       dls.Algorithm
	app       *model.Application
	divider   divide.Divider
	probeLoad float64
	ring      *obs.Ring
	metrics   *obs.RunMetrics // shared by every job
	slot      *runSlot
	ctx       context.Context
	cancel    context.CancelCauseFunc

	// Trace plumbing (zero when tracing is off): the job's trace id, the
	// daemon.submit span every scheduler span parents under, the open
	// queue span between admission and start, and the execute span id
	// engine chunk spans parent under.
	traceID    otrace.TraceID
	submitSpan otrace.SpanID
	queueSpan  otrace.Span
	execSpan   otrace.SpanID
}

// EmitPtr implements obs.Sink for the engine run of the job.
func (p *pendingJob) EmitPtr(ev *obs.Event) {
	p.ring.EmitPtr(ev)
	p.metrics.EmitPtr(ev)
}

// admitLocked places a freshly submitted job: start it if a concurrency
// slot is free, queue it if the queue has room, otherwise reject it with
// ErrQueueFull. Caller holds d.mu and has already registered the job in
// d.jobs. The returned error is what Submit reports to the client.
func (d *Daemon) admitLocked(p *pendingJob) error {
	job := p.job
	if rej := d.refusalLocked(); rej != nil {
		p.cancel(rej.err)
		d.endLocked(job, time.Now(), JobRejected, rej.msg, rej.code)
		return rej.err
	}
	d.jobsSubmitted.Inc()
	job.run = p
	job.State = JobQueued
	p.ring.Append(&obs.Event{Type: obs.JobQueued, Class: job.Priority})
	// Every accepted job gets a queue span — immediate starts record a
	// near-zero one — so the queue stage sample covers all admissions,
	// not just the jobs that happened to wait.
	p.queueSpan = d.tracer.Begin(p.traceID, p.submitSpan, "job.queue")
	if d.effCap == 0 || len(d.running) < d.effCap {
		d.startLocked(p)
		return nil
	}
	i, _ := d.queueIndexLocked(job)
	d.queue = slices.Insert(d.queue, i, p)
	d.jobsQueuedG.Set(float64(len(d.queue)))
	return nil
}

// refusalLocked is the admission verdict that does not depend on the
// task spec: the precomputed rejection when the daemon is draining or
// every slot is busy and the queue is at depth, nil to admit. Caller
// holds d.mu.
func (d *Daemon) refusalLocked() *rejection {
	switch {
	case d.draining:
		return &d.rejDraining
	case d.effCap > 0 && len(d.running) >= d.effCap &&
		d.cfg.QueueDepth > 0 && len(d.queue) >= d.cfg.QueueDepth:
		return &d.rejFull
	}
	return nil
}

// queueIndexLocked binary-searches d.queue, which is in dispatch order
// (class rank, then ID), for a job: its index and true while it is
// queued, or where it belongs and false. Caller holds d.mu.
func (d *Daemon) queueIndexLocked(job *Job) (int, bool) {
	rank := classIndex(job.Priority)
	return slices.BinarySearchFunc(d.queue, job, func(p *pendingJob, job *Job) int {
		if c := cmp.Compare(classIndex(p.job.Priority), rank); c != 0 {
			return c
		}
		return cmp.Compare(p.job.ID, job.ID)
	})
}

// queuePosLocked returns a queued job's 1-based dispatch position, 0
// for a job that is not queued. Caller holds d.mu.
func (d *Daemon) queuePosLocked(job *Job) int {
	if job.State != JobQueued {
		return 0
	}
	if i, ok := d.queueIndexLocked(job); ok {
		return i + 1
	}
	return 0
}

// endLocked is every job's one terminal transition: it stamps the state,
// the finish time now and the error text and code, counts the outcome,
// appends the lifecycle event a cancellation or a rejection carries to
// the job's ring (a fast-rejected job has none), and retires the job. A
// done job's trace is set before the call, since it joins the payload.
// Caller holds d.mu and has taken the job out of the queue or running.
func (d *Daemon) endLocked(job *Job, now time.Time, state JobState, msg, code string) {
	job.State, job.Finished, job.Err, job.Code = state, now, msg, code
	switch state {
	case JobDone:
		d.jobsDone.Inc()
	case JobFailed:
		d.jobsFailed.Inc()
	case JobCancelled:
		d.jobsCancelled.Inc()
		job.events.Append(&obs.Event{
			Type: obs.JobCancelled, T: time.Since(job.Submitted).Seconds(),
			Class: job.Priority, Err: msg,
		})
	case JobRejected:
		d.jobsRejected.Inc()
		if job.events != nil {
			job.events.Append(&obs.Event{Type: obs.JobRejected, Class: job.Priority, Err: msg})
		}
	}
	d.retireLocked(job)
}

// retireLocked appends a terminal job to d.retired and applies the two
// retention bounds. The job's payload (event pages plus trace records)
// joins the budgeted total, and while that exceeds the budget the
// longest-retired payloads are stripped from the cursor on — never the
// retiring job's own, so the newest job's events and report can always
// be read. Then, when Config.RetainJobs bounds retention, the
// longest-retired jobs beyond the bound are evicted outright. Caller
// holds d.mu.
func (d *Daemon) retireLocked(job *Job) {
	job.run = nil
	d.retired = append(d.retired, job)
	if job.events != nil {
		job.nextSeq = job.events.NextSeq()
		job.payload = job.events.Bytes()
		if job.tr != nil {
			job.payload += job.tr.Bytes()
		}
		d.payloadSize += job.payload
		for d.payloadSize > d.payloadMax && d.stripped < len(d.retired)-1 {
			d.stripLocked(d.retired[d.stripped])
			d.stripped++
		}
	}
	if d.cfg.RetainJobs <= 0 {
		return
	}
	for len(d.retired) > d.cfg.RetainJobs {
		d.evictLocked()
	}
	d.jobsRetained.Set(float64(len(d.retired)))
}

// stripLocked drops a terminal job's payload and keeps its summary: the
// ring's pages go back to the pool and the trace to the collector.
// Caller holds d.mu.
func (d *Daemon) stripLocked(job *Job) {
	if job.events == nil {
		return
	}
	job.events.Release()
	job.events, job.tr = nil, nil
	d.payloadSize -= job.payload
	job.payload = 0
}

// evictLocked forgets the longest-retired job entirely. Caller holds
// d.mu.
func (d *Daemon) evictLocked() {
	job := d.retired[0]
	d.stripLocked(job)
	d.retired[0] = nil
	d.retired = d.retired[1:]
	d.stripped = max(d.stripped-1, 0)
	i, _ := d.jobIndexLocked(job.ID)
	d.jobs = slices.Delete(d.jobs, i, i+1)
	d.jobsEvicted.Inc()
}

// startLocked moves a job into the running state: inserts it into
// d.running in job ID order, leases its share of the live worker pool,
// stamps the wait-time metrics, and launches the run goroutine. Caller
// holds d.mu.
func (d *Daemon) startLocked(p *pendingJob) {
	job := p.job
	job.State = JobRunning
	job.Started = time.Now()
	p.queueSpan.End(nil)
	p.slot = d.takeSlotLocked()
	i := sort.Search(len(d.running), func(i int) bool { return d.running[i].job.ID > job.ID })
	d.running = slices.Insert(d.running, i, p)
	d.jobsRunning.Inc()
	ls := d.tracer.Begin(p.traceID, p.submitSpan, "job.lease")
	d.allocSharesLocked(p)
	ls.End(nil)
	wait := job.Started.Sub(job.Submitted).Seconds()
	d.waitSeconds[job.Priority].Observe(wait)
	p.ring.Append(&obs.Event{
		Type: obs.JobStarted, T: wait, Class: job.Priority,
		Dur: wait, Workers: len(job.Leased),
	})
	d.wg.Add(1)
	go d.runJob(p)
}

// runJob executes one job to a terminal state, then releases its
// resources and pulls the next queued job into the freed slot.
func (d *Daemon) runJob(p *pendingJob) {
	defer d.wg.Done()
	exec := d.tracer.Begin(p.traceID, p.submitSpan, "job.execute")
	p.execSpan = exec.ID()
	tr, panicked, err := d.runRecovered(p)
	exec.End(err)
	d.mu.Lock()
	defer d.mu.Unlock()
	job := p.job
	now := time.Now()
	if !panicked {
		// A panic can leave the slot's backend and arena mid-run, so
		// such a slot is dropped, not reused.
		d.putSlotLocked(p.slot)
	}
	p.slot = nil
	i := slices.Index(d.running, p)
	d.running = slices.Delete(d.running, i, i+1)
	d.jobsRunning.Dec()
	d.runSeconds[job.Priority].Observe(now.Sub(job.Started).Seconds())
	// Release after the job left d.running so the reshare it triggers
	// redistributes only among the survivors, and before scheduleLocked
	// so the next admission sees the freed capacity.
	d.releaseSharesLocked(p)
	switch {
	case err == nil:
		job.tr = tr
		job.Makespan = tr.Makespan()
		job.Chunks = tr.Len()
		d.jobSeconds.Observe(job.Makespan)
		d.endLocked(job, now, JobDone, "", "")
	case p.ctx.Err() != nil:
		cause := context.Cause(p.ctx)
		d.endLocked(job, now, JobCancelled, cause.Error(), errcode.Code(cause))
	default:
		d.endLocked(job, now, JobFailed, err.Error(), errcode.Code(err))
	}
	d.scheduleLocked()
	d.notifyIfIdleLocked()
}

// runRecovered runs the job through runFn and turns a panic into the
// job's error, so one job whose inputs reach an arithmetic accident
// (probe bytes overflowing to +Inf, say) fails alone instead of ending
// the daemon.
func (d *Daemon) runRecovered(p *pendingJob) (tr *trace.Trace, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			tr, panicked, err = nil, true, fmt.Errorf("daemon: job panicked: %v", r)
		}
	}()
	tr, err = d.runFn(p.ctx, p)
	return tr, false, err
}

// scheduleLocked fills free concurrency slots from the head of the
// queue. Caller holds d.mu.
func (d *Daemon) scheduleLocked() {
	for !d.draining && len(d.queue) > 0 && (d.effCap == 0 || len(d.running) < d.effCap) {
		p := d.queue[0]
		d.queue[0] = nil
		d.queue = d.queue[1:]
		d.startLocked(p)
	}
	d.jobsQueuedG.Set(float64(len(d.queue)))
}

// cancelQueuedLocked ends a queued job as cancelled with the given
// cause. Caller holds d.mu and takes it out of d.queue.
func (d *Daemon) cancelQueuedLocked(p *pendingJob, cause error) {
	p.queueSpan.End(cause)
	p.cancel(cause)
	d.endLocked(p.job, time.Now(), JobCancelled, cause.Error(), errcode.Code(cause))
}

// notifyIfIdleLocked wakes Wait callers once nothing runs or queues.
func (d *Daemon) notifyIfIdleLocked() {
	if len(d.running) == 0 && len(d.queue) == 0 {
		d.idle.Broadcast()
	}
}

// drainGrace bounds how long Shutdown waits for cancelled jobs to
// unwind after the caller's deadline has already expired.
const drainGrace = 5 * time.Second

// Shutdown drains the daemon: it stops admitting (submissions fail with
// ErrDraining), cancels every queued job, and waits for running jobs to
// finish. If ctx expires first, the running jobs are cancelled too and
// Shutdown waits a short bounded grace for them to unwind; jobs still
// running after that are reported as an error.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	d.draining = true
	for _, p := range d.queue {
		d.cancelQueuedLocked(p, fmt.Errorf("daemon: job cancelled: %w", ErrDraining))
	}
	d.queue = nil
	d.jobsQueuedG.Set(0)
	d.notifyIfIdleLocked()
	d.mu.Unlock()

	done := make(chan struct{})
	go func() { d.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	d.mu.Lock()
	for _, p := range d.running {
		p.cancel(fmt.Errorf("daemon: job cancelled: %w", ErrDraining))
	}
	d.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-time.After(drainGrace):
		d.mu.Lock()
		n := len(d.running)
		d.mu.Unlock()
		return fmt.Errorf("daemon: %d jobs still running after drain deadline", n)
	}
}

// CancelArgs selects the job to cancel.
type CancelArgs struct{ JobID int }

// CancelReply reports the job's state after the cancel request: a
// queued job goes straight to cancelled; a running job stays running
// until the engine unwinds (poll Status for the terminal state);
// terminal jobs are unchanged.
type CancelReply struct{ State JobState }

// Cancel implements the cancellation RPC. Cancelling a queued job
// removes it from the queue immediately; cancelling a running job
// cancels its context, which aborts the engine run (and, in live mode,
// the worker-side compute) and frees its worker leases when the run
// goroutine unwinds — at which point the freed slot pulls the next
// queued job. Cancelling a terminal job is a no-op.
func (d *Daemon) Cancel(args CancelArgs, reply *CancelReply) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	job := d.jobLocked(args.JobID)
	if job == nil {
		return fmt.Errorf("daemon: no job %d: %w", args.JobID, ErrJobNotFound)
	}
	switch job.State {
	case JobQueued:
		i, _ := d.queueIndexLocked(job)
		d.queue = slices.Delete(d.queue, i, i+1)
		d.jobsQueuedG.Set(float64(len(d.queue)))
		d.cancelQueuedLocked(job.run, fmt.Errorf("daemon: job cancelled: %w", ErrJobCancelled))
		d.notifyIfIdleLocked()
	case JobRunning:
		job.run.cancel(fmt.Errorf("daemon: job cancelled: %w", ErrJobCancelled))
	}
	reply.State = job.State
	return nil
}
