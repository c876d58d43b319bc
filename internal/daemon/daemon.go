// Package daemon implements the APST-DV daemon (§3.1): a long-running
// service that accepts divisible load application submissions (the XML
// task specification), deploys them on its configured platform with the
// requested DLS algorithm, and reports progress and execution reports to
// clients. Clients talk to the daemon over the frame transport
// (internal/transport; method ids and codecs in wire.go) — the console
// in cmd/apstdv is one such client.
//
// The daemon runs in one of two modes:
//
//   - live: chunks move to real worker processes and burn real CPU
//     (package live);
//   - sim: the platform is simulated (package grid) — the mode used to
//     dry-run a deployment or reproduce the paper's experiments.
package daemon

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"apstdv/internal/divide"
	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/errcode"
	"apstdv/internal/grid"
	"apstdv/internal/live"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/spec"
	"apstdv/internal/trace"
	"apstdv/internal/units"
)

// Mode selects the execution backend.
type Mode string

// Daemon execution modes.
const (
	ModeSim  Mode = "sim"
	ModeLive Mode = "live"
)

// Config configures a daemon.
type Config struct {
	Mode Mode
	// Platform describes the resources (required for sim mode; in live
	// mode it documents the workers for reports and sizing).
	Platform *model.Platform
	// Seed drives sim-mode stochastic processes.
	Seed uint64
	// SpecDir resolves relative file names in task specifications.
	SpecDir string
	// Live-mode worker pool.
	LiveWorkers []live.WorkerConn
	// MaxConcurrentJobs caps how many jobs run at once; excess
	// submissions queue. 0 means the mode default: 1 in live mode
	// (concurrent jobs would otherwise contend for the same worker
	// CPUs and every cost estimate would be wrong) and unlimited in
	// sim mode. Under the partition policy the live cap is also
	// clamped to the worker count, since every running job leases at
	// least one whole worker; fair and srpt time-share workers, so
	// the cap stands as configured.
	MaxConcurrentJobs int
	// CoschedPolicy selects how concurrently running live jobs split
	// the worker pool: "partition" (default — disjoint whole-worker
	// grants, the historical behaviour), "fair" (every job on every
	// worker, even fractions) or "srpt" (fractions weighted toward the
	// smallest job). See cosched.go.
	CoschedPolicy string
	// QueueDepth bounds the admission queue across all priority
	// classes; submissions that would exceed it are rejected with
	// ErrQueueFull. 0 means unbounded.
	QueueDepth int
	// RetainJobs bounds how many terminal (done, failed, cancelled or
	// rejected) jobs stay visible to Status/ListJobs; once the bound is
	// exceeded the longest-finished are evicted. 0 keeps every job's
	// summary (a few hundred bytes each). The bulky part of a finished
	// job — its event tail and execution report — is bounded separately
	// and always, by payloadBudget: the newest finished jobs keep
	// theirs, older ones answer Events with an empty tail and Report
	// with ErrJobNotFound while Status and ListJobs still serve them.
	RetainJobs int
	// Trace, when set, records one span tree per job across the serving
	// path (decode, admission, queue, lease, execute, per-chunk engine
	// stages) into the collector. Nil disables tracing entirely: the
	// instrumented paths reduce to nil checks.
	Trace *otrace.Collector
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states. Queued and rejected are entered at admission;
// cancelled is terminal for both queued and running jobs.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
	JobRejected  JobState = "rejected"
)

// Job tracks one submitted application.
type Job struct {
	ID        int
	Algorithm string
	// Priority is the admission class: high, normal or low.
	Priority  string
	State     JobState
	Submitted time.Time
	// Started is when the job left the queue (zero while queued).
	Started  time.Time
	Finished time.Time
	Makespan float64
	Chunks   int
	Err      string
	// Code is the machine-readable error code for failed, cancelled
	// and rejected jobs (errcode.Code of the terminal error).
	Code string
	// QueuePos is the 1-based dispatch position while queued, 0
	// otherwise.
	QueuePos int
	// Leased holds the live-mode worker indexes leased to the running
	// job; empty once released (and always in sim mode).
	Leased []int
	// Shares holds the job's CPU fraction on each leased worker,
	// aligned with Leased (Shares[i] is the fraction on Leased[i]).
	// Under partition every entry is 1; under fair/srpt the
	// co-scheduler revises the fractions as peers arrive and finish.
	// Empty once released (and always in sim mode). Leased and Shares
	// are the daemon's only record of a running job's allocation; a
	// revision replaces Shares and never writes it in place.
	Shares []float64
	// TraceID identifies the job's trace when the daemon traces (see
	// Config.Trace); 0 otherwise. Feed it to the Trace RPC or /debug/trace.
	TraceID uint64

	// The job's payload: its execution trace (done jobs) and its event
	// ring (every job that got past the fast-reject). Both are dropped
	// together, by eviction or by stripLocked; payload is what they count
	// for against the daemon's payloadBudget once the job is terminal,
	// and nextSeq — one past the job's last event — is what a stripped
	// job keeps of its stream, so Events can still tell a poller it
	// missed something.
	tr      *trace.Trace
	events  *obs.Ring
	payload int
	nextSeq int64
	// run is the job's run state while it is queued or running (nil
	// before admission and once terminal); Cancel reaches it here.
	run *pendingJob
}

// summaryLocked returns the copy of the job record that Status and
// ListJobs serve. Caller holds d.mu.
func (d *Daemon) summaryLocked(j *Job) Job {
	cp := *j
	cp.QueuePos = d.queuePosLocked(j)
	cp.tr, cp.events, cp.run = nil, nil, nil
	return cp
}

const (
	// jobEventRing bounds each job's retained event tail: long jobs keep
	// the most recent events; pollers that fall behind skip ahead. The
	// ring takes its storage a 53-event page (16 112 B) at a time from
	// the daemon's page pool, so a short job holds one or two pages and
	// only a job that emits this many events holds all 155 (2.5 MB).
	jobEventRing = 8192
	// pagePoolBytes bounds the idle ring pages the daemon keeps for its
	// jobs: 260 pages, more than one full ring's worth, because a strip
	// or an eviction frees one job's pages while the next big job is
	// still filling its own.
	pagePoolBytes = 4 << 20
	// payloadBudget bounds the event pages plus trace records held by
	// terminal jobs: room for about eleven maximal jobs (8192 events and
	// 4000 chunks, ≈ 2.9 MB) or thousands of small ones, and small enough
	// that the collector's doubled heap target stays under 100 MB.
	payloadBudget = 32 << 20
)

// Daemon is the RPC service state.
type Daemon struct {
	cfg Config

	// The job collections, one per lifecycle phase (guarded by mu).
	// jobs holds every retained job in ascending ID order (admission
	// appends, eviction removes; lookups binary-search it), so listing
	// costs what is retained and not what was ever issued. Each of them
	// is in exactly one of the other three: queue, the admitted jobs
	// waiting for a slot in dispatch order (class rank, then ID, so a
	// job's QueuePos is its index + 1); running, in ascending ID order
	// (their Leased and Shares are the live-worker allocation); and
	// retired, the terminal jobs in retirement order. RetainJobs evicts
	// from the head of retired, and the payload budget strips from
	// retired[stripped]: no job before that cursor holds a payload, and
	// payloadSize totals those from it on. payloadMax is the budget — a
	// field only so that in-package tests can lower it.
	mu          sync.Mutex
	jobs        []*Job
	queue       []*pendingJob
	running     []*pendingJob
	retired     []*Job
	stripped    int
	payloadSize int
	payloadMax  int
	nextID      int
	wg          sync.WaitGroup

	draining bool
	effCap   int // 0 = unlimited
	// Live-mode co-scheduling: the normalized policy name and its
	// share-vector function (nil for partition). See cosched.go.
	cosched   string
	coschedFn grid.SharePolicy
	idle      *sync.Cond // broadcast when running and queue are empty
	// pages recycles ring pages across jobs; slots is the free list of
	// execution slots (see runSlot).
	pages *obs.PagePool
	slots []*runSlot
	// Precomputed fast-reject outcomes: shedding under overload must
	// be O(1) per call, so the wrapped error, its message and its code
	// are built once at construction.
	rejDraining, rejFull rejection

	// Parsed-spec cache: load generators and parameter sweeps submit
	// the same TaskXML at high rates, and the XML decode dominates a
	// Submit that ends queued or rejected. Parsed Tasks are read-only
	// after Parse, so one instance can back concurrent submissions.
	specMu    sync.Mutex
	specCache map[string]*spec.Task
	specOrder []string

	// runFn executes one admitted job; tests override it to exercise
	// the scheduler without a real backend.
	runFn func(ctx context.Context, p *pendingJob) (*trace.Trace, error)

	// Telemetry: one registry aggregates daemon-level job accounting
	// and the engine/grid metric sets across all jobs.
	started                             time.Time
	registry                            *obs.Registry
	runMetrics                          *obs.RunMetrics
	gridMetrics                         *obs.GridMetrics
	jobsSubmitted, jobsDone, jobsFailed *obs.Counter
	jobsRejected, jobsCancelled         *obs.Counter
	jobsRunning                         *obs.Gauge
	jobsQueuedG                         *obs.Gauge
	workersLeased                       *obs.Gauge
	jobsRetained                        *obs.Gauge
	jobsEvicted                         *obs.Counter
	coschedReshares                     *obs.Counter
	shareErrors                         *obs.Counter
	// workerShareG publishes each worker's allocated fraction
	// (apstdv_worker_share_w<i>); registered in live mode only.
	workerShareG            []*obs.Gauge
	jobSeconds              *obs.Histogram
	waitSeconds, runSeconds map[string]*obs.Histogram
	// Transport counters are registered per direction so /metrics
	// separates the daemon's serving surface (its frame server) from the
	// calls it originates (live worker links).
	transportMetrics       *obs.TransportMetrics // server side
	clientTransportMetrics *obs.TransportMetrics // daemon-originated calls

	// tracer is Config.Trace (nil when tracing is off). All otrace
	// methods are nil-safe, so call sites need no guards beyond what the
	// span API itself provides.
	tracer *otrace.Collector
}

// New validates the configuration and returns a daemon.
func New(cfg Config) (*Daemon, error) {
	switch cfg.Mode {
	case ModeSim:
		if cfg.Platform == nil {
			return nil, fmt.Errorf("daemon: sim mode needs a platform")
		}
		if err := cfg.Platform.Validate(); err != nil {
			return nil, err
		}
	case ModeLive:
		if len(cfg.LiveWorkers) == 0 {
			return nil, fmt.Errorf("daemon: live mode needs workers")
		}
	default:
		return nil, fmt.Errorf("daemon: unknown mode %q", cfg.Mode)
	}
	if cfg.MaxConcurrentJobs < 0 {
		return nil, fmt.Errorf("daemon: negative max concurrent jobs")
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("daemon: negative queue depth")
	}
	if cfg.RetainJobs < 0 {
		return nil, fmt.Errorf("daemon: negative retain jobs")
	}
	cosched, err := normalizeCosched(cfg.CoschedPolicy)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	d := &Daemon{
		cfg:           cfg,
		specCache:     make(map[string]*spec.Task),
		payloadMax:    payloadBudget,
		pages:         obs.NewPagePool(pagePoolBytes),
		started:       time.Now(),
		registry:      reg,
		runMetrics:    obs.NewRunMetrics(reg),
		gridMetrics:   obs.NewGridMetrics(reg),
		jobsSubmitted: reg.Counter("apstdv_jobs_submitted_total", "Jobs accepted by Submit."),
		jobsDone:      reg.Counter("apstdv_jobs_done_total", "Jobs that finished successfully."),
		jobsFailed:    reg.Counter("apstdv_jobs_failed_total", "Jobs that failed."),
		jobsRejected:  reg.Counter("apstdv_jobs_rejected_total", "Submissions rejected by admission control."),
		jobsCancelled: reg.Counter("apstdv_jobs_cancelled_total", "Jobs cancelled before completing."),
		jobsRunning:   reg.Gauge("apstdv_jobs_running", "Jobs currently executing."),
		jobsQueuedG:   reg.Gauge("apstdv_jobs_queued", "Jobs waiting in the admission queue."),
		workersLeased: reg.Gauge("apstdv_workers_leased", "Live workers leased to running jobs."),
		jobsRetained:  reg.Gauge("apstdv_jobs_retained", "Terminal jobs held for Status/Report under the RetainJobs bound."),
		jobsEvicted:   reg.Counter("apstdv_jobs_evicted_total", "Terminal jobs evicted from retention by the RetainJobs bound."),
		jobSeconds:    reg.Histogram("apstdv_job_makespan_seconds", "Per-job model makespan.", obs.DurationBuckets),
		waitSeconds:   make(map[string]*obs.Histogram),
		runSeconds:    make(map[string]*obs.Histogram),
		tracer:        cfg.Trace,
		cosched:       cosched,
		coschedFn:     coschedPolicy(cosched),
		coschedReshares: reg.Counter("apstdv_cosched_reshares_total",
			"Share revisions performed by the co-scheduler."),
		shareErrors: reg.Counter("apstdv_share_errors_total",
			"Share revisions refused because some worker would be oversubscribed."),
	}
	d.transportMetrics = obs.NewTransportMetrics(reg, "server")
	d.clientTransportMetrics = obs.NewTransportMetrics(reg, "client")
	for _, c := range classes {
		d.waitSeconds[c] = reg.Histogram("apstdv_job_wait_seconds_"+c,
			"Queue wait of "+c+"-priority jobs.", obs.DurationBuckets)
		d.runSeconds[c] = reg.Histogram("apstdv_job_run_seconds_"+c,
			"Wall-clock run time of "+c+"-priority jobs.", obs.DurationBuckets)
	}
	d.rejDraining = newRejection(fmt.Errorf("daemon: job rejected: %w", ErrDraining))
	d.rejFull = newRejection(fmt.Errorf("daemon: job rejected: %w (depth %d)", ErrQueueFull, cfg.QueueDepth))
	d.idle = sync.NewCond(&d.mu)
	d.effCap = cfg.MaxConcurrentJobs
	if cfg.Mode == ModeLive {
		if d.effCap == 0 {
			d.effCap = 1
		}
		// The worker-count clamp is a partition invariant (every job
		// leases at least one whole worker); fair/srpt time-share, so
		// more jobs than workers is legitimate.
		if d.coschedFn == nil && d.effCap > len(cfg.LiveWorkers) {
			d.effCap = len(cfg.LiveWorkers)
		}
		for i := range cfg.LiveWorkers {
			d.workerShareG = append(d.workerShareG, reg.Gauge(
				fmt.Sprintf("apstdv_worker_share_w%d", i),
				fmt.Sprintf("Allocated CPU fraction of live worker %d across running jobs.", i)))
		}
	}
	d.runFn = d.execute
	return d, nil
}

// SubmitArgs is the Submit RPC request.
type SubmitArgs struct {
	// TaskXML is the application specification (Figures 1/6 schema).
	TaskXML string
	// Algorithm overrides the spec's algorithm attribute when non-empty.
	Algorithm string
	// Priority is the admission class: high, normal (default) or low.
	Priority string
	// SimApp supplies the application's true cost model for sim mode
	// (what reality supplies in live mode). Ignored in live mode.
	SimApp *SimApp
	// TraceID and ParentSpan stitch the daemon's spans under the
	// client's trace. They are not part of the wire body: they ride the
	// frame header and the Submit handler copies them in. Both zero
	// means the client is not tracing; a tracing daemon then mints its
	// own trace id.
	TraceID    uint64
	ParentSpan uint64
}

// SimApp carries the simulated application's ground truth.
type SimApp struct {
	UnitCost     float64
	BytesPerUnit float64
	Gamma        float64
}

// SubmitReply returns the job handle.
type SubmitReply struct {
	JobID     int
	Algorithm string
	TotalLoad float64
	// State is the job's admission outcome: running when a concurrency
	// slot was free, queued otherwise.
	State JobState
}

// Submit parses, validates and admits a job: it starts immediately when
// a concurrency slot is free, queues behind its priority class
// otherwise, and is rejected with ErrQueueFull when the queue is at its
// configured depth. Poll Status for completion.
func (d *Daemon) Submit(args SubmitArgs, reply *SubmitReply) error {
	prio, err := normalizePriority(args.Priority)
	if err != nil {
		return err
	}
	// Trace stitching: adopt the client's trace id, or — when the daemon
	// traces but the client does not — mint one, so daemon-side stages
	// still form one tree. The submit span id is allocated up front so
	// the parse/admit children can parent under it before it is recorded.
	tid := otrace.TraceID(args.TraceID)
	parent := otrace.SpanID(args.ParentSpan)
	var t0 int64
	var sid otrace.SpanID
	if d.tracer != nil {
		if tid == 0 {
			tid = d.tracer.NewTraceID()
		}
		t0 = d.tracer.Clock()
		sid = d.tracer.NextSpanID()
	}
	// Fast-reject before the parse: when the daemon is draining or the
	// admission queue is at depth, the verdict cannot change for this
	// submission, and at production rates the XML decode and divider
	// build dominate the cost of a rejection. Admission state can only
	// improve between here and admitLocked (a slot frees, the queue
	// drains), which keeps the authoritative check there.
	if cause := d.fastReject(prio); cause != nil {
		// Shed submissions stay cheap: one retroactive terminal span,
		// no children, named apart from daemon.submit so the admission
		// stage stats describe the accepted path only.
		d.tracer.RecordSince(tid, parent, "submit.reject", t0, cause)
		return cause
	}
	err = d.submitSlow(args, prio, tid, sid, reply)
	d.tracer.RecordSpan(tid, sid, parent, "daemon.submit", t0, d.tracer.Clock(), false, errText(err))
	return err
}

// submitSlow is Submit past the fast-reject: parse, build, admit. Its
// parse and admission stages record as children of the daemon.submit
// span (sid), which the caller records once the outcome is known.
func (d *Daemon) submitSlow(args SubmitArgs, prio string, tid otrace.TraceID, sid otrace.SpanID, reply *SubmitReply) error {
	ps := d.tracer.Begin(tid, sid, "submit.parse")
	task, err := d.parseSpec(args.TaskXML)
	if err != nil {
		ps.End(err)
		return err
	}
	algName := task.Divisibility.Algorithm
	if args.Algorithm != "" {
		algName = args.Algorithm
	}
	if algName == "" {
		algName = "fixed-rumr" // the paper's recommendation to users (§4.3)
	}
	alg, err := dls.New(algName)
	if err != nil {
		ps.End(err)
		return err
	}
	divider, err := task.BuildDivider(d.cfg.SpecDir)
	if err != nil {
		// Specs that reference files the daemon cannot see still run in
		// sim mode with the callback method's declared load.
		if task.Divisibility.Load > 0 {
			divider, err = divide.NewWorkUnits(int(task.Divisibility.Load))
		}
		if err != nil {
			ps.End(err)
			return err
		}
	}

	app, err := d.buildApp(task, divider, args.SimApp)
	ps.End(err)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	as := d.tracer.Begin(tid, sid, "submit.admit")
	d.mu.Lock()
	job := d.newJobLocked(Job{
		Algorithm: algName, Priority: prio,
		Submitted: time.Now(), TraceID: uint64(tid),
		events: d.pages.NewRing(jobEventRing),
	})
	p := &pendingJob{
		job: job, alg: alg, app: app, divider: divider,
		probeLoad: task.Divisibility.ProbeLoad,
		ring:      job.events,
		metrics:   d.runMetrics,
		ctx:       ctx, cancel: cancel,
		traceID: tid, submitSpan: sid,
	}
	err = d.admitLocked(p)
	if err == nil {
		reply.JobID = job.ID
		reply.Algorithm = algName
		reply.TotalLoad = divider.TotalLoad()
		reply.State = job.State
	}
	d.mu.Unlock()
	as.End(err)
	return err
}

// newJobLocked gives the job record the next ID and registers it.
// Caller holds d.mu.
func (d *Daemon) newJobLocked(j Job) *Job {
	d.nextID++
	j.ID = d.nextID
	job := &j
	d.jobs = append(d.jobs, job)
	return job
}

// jobIndexLocked binary-searches d.jobs for an ID: the job's index and
// true, or where it would go and false. Caller holds d.mu.
func (d *Daemon) jobIndexLocked(id int) (int, bool) {
	return slices.BinarySearchFunc(d.jobs, id, func(j *Job, id int) int { return cmp.Compare(j.ID, id) })
}

// jobLocked returns the retained job with the given ID, or nil. Caller
// holds d.mu.
func (d *Daemon) jobLocked(id int) *Job {
	if i, ok := d.jobIndexLocked(id); ok {
		return d.jobs[i]
	}
	return nil
}

// errText is err.Error() tolerating nil, for retroactive span records.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// rejection is a precomputed fast-reject outcome: building the wrapped
// error, its message and its errcode per shed submission would make
// overload shedding allocate-heavy exactly when the daemon is busiest.
type rejection struct {
	err  error
	msg  string
	code string
}

func newRejection(cause error) rejection {
	return rejection{err: cause, msg: cause.Error(), code: errcode.Code(cause)}
}

// fastReject answers the admission checks that do not depend on the
// task spec. When the submission cannot be admitted it records a
// terminal rejected job (rejections stay visible in listings, same as
// the slow path) and returns the typed error; otherwise it returns nil
// and Submit proceeds to parse. Unlike the slow path, fast-rejected
// jobs carry no event ring — shedding is O(1) by design, and the
// rejection outcome is fully described by the job record itself.
func (d *Daemon) fastReject(prio string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	rej := d.refusalLocked()
	if rej == nil {
		return nil
	}
	now := time.Now()
	job := d.newJobLocked(Job{Priority: prio, Submitted: now})
	d.endLocked(job, now, JobRejected, rej.msg, rej.code)
	return rej.err
}

// specCacheSize bounds the parsed-spec cache (FIFO eviction).
const specCacheSize = 64

// parseSpec parses a task specification, serving repeated submissions
// of the same XML from a bounded cache.
func (d *Daemon) parseSpec(xml string) (*spec.Task, error) {
	d.specMu.Lock()
	if t, ok := d.specCache[xml]; ok {
		d.specMu.Unlock()
		return t, nil
	}
	d.specMu.Unlock()
	t, err := spec.Parse(strings.NewReader(xml))
	if err != nil {
		return nil, err
	}
	d.specMu.Lock()
	if _, ok := d.specCache[xml]; !ok {
		if len(d.specOrder) >= specCacheSize {
			delete(d.specCache, d.specOrder[0])
			d.specOrder = d.specOrder[1:]
		}
		d.specCache[xml] = t
		d.specOrder = append(d.specOrder, xml)
	}
	d.specMu.Unlock()
	return t, nil
}

// buildApp derives the engine's application model from the spec.
func (d *Daemon) buildApp(task *spec.Task, divider divide.Divider, sim *SimApp) (*model.Application, error) {
	app := &model.Application{
		Name:         task.Executable,
		TotalLoad:    units.Load(divider.TotalLoad()),
		BytesPerUnit: 1,
		UnitCost:     1,
		MinChunk:     0,
	}
	if task.Divisibility.Method == spec.MethodCallback {
		app.MinChunk = 1 // whole work units
	} else if task.Divisibility.StepSize > 0 {
		app.MinChunk = units.Load(task.Divisibility.StepSize)
	}
	if sim != nil {
		if sim.UnitCost > 0 {
			app.UnitCost = units.Seconds(sim.UnitCost)
		}
		if sim.BytesPerUnit > 0 {
			app.BytesPerUnit = units.Bytes(sim.BytesPerUnit)
		}
		app.Gamma = sim.Gamma
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// runSlot is what one running job borrows from the daemon and the next
// job to run reuses: the simulated backend (sim mode; reset in place
// between jobs, see grid.Backend.Reset) and the engine's workspace. A
// job holds its slot from startLocked until runJob hands it back, so a
// slot serves one run at a time; the free list is bounded by the
// concurrency cap (GOMAXPROCS when sim mode has none, which is all that
// can run at once) and a slot returned beyond that is dropped.
type runSlot struct {
	backend *grid.Backend
	arena   *engine.Arena
}

// takeSlotLocked pops an idle slot or makes an empty one. Caller holds
// d.mu.
func (d *Daemon) takeSlotLocked() *runSlot {
	if n := len(d.slots); n > 0 {
		s := d.slots[n-1]
		d.slots[n-1] = nil
		d.slots = d.slots[:n-1]
		return s
	}
	return &runSlot{arena: engine.NewArena()}
}

// putSlotLocked returns a slot whose run is over. Caller holds d.mu.
func (d *Daemon) putSlotLocked(s *runSlot) {
	limit := d.effCap
	if limit == 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if len(d.slots) < limit {
		d.slots = append(d.slots, s)
	}
}

// execute runs the job on the configured backend, in the slot the
// scheduler gave it, streaming its events through p into the job's ring
// (numbered after the daemon's lifecycle events by the ring) and the
// shared registry's engine metrics. The trace the engine returns lives
// in the slot's arena and the slot's next job overwrites it, so the job
// keeps a copy.
func (d *Daemon) execute(ctx context.Context, p *pendingJob) (*trace.Trace, error) {
	req := engine.Request{
		Algorithm: p.alg, App: p.app, Platform: d.cfg.Platform,
		Arena: p.slot.arena,
		Config: engine.Config{
			Divider: p.divider, ProbeLoad: p.probeLoad,
			Events: p,
			// Chunk spans parent under the job.execute span and anchor
			// the backend clock at "now" on the collector timeline.
			Trace: d.tracer, TraceID: p.traceID,
			TraceParent: p.execSpan, TraceAnchor: d.tracer.Clock(),
		},
	}
	switch d.cfg.Mode {
	case ModeSim:
		gcfg := grid.Config{Seed: d.cfg.Seed, Metrics: d.gridMetrics}
		var err error
		if p.slot.backend == nil {
			p.slot.backend, err = grid.New(d.cfg.Platform, p.app, gcfg)
		} else {
			err = p.slot.backend.Reset(p.app, gcfg)
		}
		if err != nil {
			return nil, err
		}
		req.Backend = p.slot.backend
	case ModeLive:
		// The job runs on its leased workers only — that is the
		// isolation leasing buys. (No recorded lease means no worker
		// was free to grant, so use the whole pool.) Under fair/srpt the
		// lease covers every worker and the fractions say how much.
		//
		// Snapshot the job's fractions for deadline scaling. The
		// dialed connections are fixed for the run, so a later
		// revision only changes rates, not membership; shares can
		// only grow as peers finish (deadlines stay conservative),
		// and an arrival-shrink is absorbed by the retry layer's
		// deadline slack.
		d.mu.Lock()
		leased := p.job.Leased
		req.Config.WorkerShares = p.job.Shares
		d.mu.Unlock()
		conns := d.cfg.LiveWorkers
		if len(leased) > 0 {
			conns = make([]live.WorkerConn, 0, len(leased))
			for _, w := range leased {
				conns = append(conns, d.cfg.LiveWorkers[w])
			}
		}
		backend, err := live.Dial(conns, live.Config{Metrics: d.clientTransportMetrics})
		if err != nil {
			return nil, err
		}
		// The run owns the worker connections: close them when it
		// returns, finished or not.
		defer backend.Close()
		defer backend.Stop()
		// Worker RPCs record as spans under the job's execute span and
		// carry the trace context on their frames.
		backend.SetTrace(d.tracer, p.traceID, p.execSpan)
		// Cancellation must unblock the backend too: abort worker-side
		// compute and fail the in-flight RPCs so Run's drain finishes.
		stop := context.AfterFunc(ctx, backend.Cancel)
		defer stop()
		req.Backend = backend
	default:
		return nil, fmt.Errorf("daemon: unknown mode %q", d.cfg.Mode)
	}
	tr, err := engine.Execute(ctx, req)
	if err != nil {
		return nil, err
	}
	return tr.Clone(), nil
}

// StatusArgs selects a job.
type StatusArgs struct{ JobID int }

// StatusReply reports a job's state.
type StatusReply struct {
	Job Job
}

// Status implements the status RPC.
func (d *Daemon) Status(args StatusArgs, reply *StatusReply) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	job := d.jobLocked(args.JobID)
	if job == nil {
		return fmt.Errorf("daemon: no job %d: %w", args.JobID, ErrJobNotFound)
	}
	reply.Job = d.summaryLocked(job)
	return nil
}

// ReportArgs selects a job.
type ReportArgs struct{ JobID int }

// ReportReply carries the execution report.
type ReportReply struct {
	Summary string
	CSV     string
	// Gantt is the per-worker timeline ("the detailed execution report
	// generated by APST-DV" the paper's authors used to diagnose RUMR).
	Gantt string
}

// Report implements the report RPC: the per-chunk execution record the
// paper's authors used to diagnose RUMR ("after looking into the
// detailed execution report generated by APST-DV"). A done job whose
// payload the byte budget has since dropped answers like an evicted one:
// its report is no longer found.
func (d *Daemon) Report(args ReportArgs, reply *ReportReply) error {
	// The run goroutine writes State and tr under d.mu, so both are read
	// under it; the trace itself is immutable once the job is done.
	d.mu.Lock()
	job := d.jobLocked(args.JobID)
	var state JobState
	var tr *trace.Trace
	if job != nil {
		state, tr = job.State, job.tr
	}
	d.mu.Unlock()
	if job == nil {
		return fmt.Errorf("daemon: no job %d: %w", args.JobID, ErrJobNotFound)
	}
	if state != JobDone {
		return fmt.Errorf("daemon: job %d is %s; no report", args.JobID, state)
	}
	if tr == nil {
		return fmt.Errorf("daemon: job %d: report no longer retained: %w", args.JobID, ErrJobNotFound)
	}
	workers := 0
	if d.cfg.Platform != nil {
		workers = len(d.cfg.Platform.Workers)
	} else {
		workers = len(d.cfg.LiveWorkers)
	}
	// The three texts are appended into one buffer sized for them and
	// handed over as substrings of it: the records are walked once for
	// the makespan, and nothing is copied on the way into the reply.
	const ganttWidth = 100
	rep := tr.BuildReport(workers)
	buf := make([]byte, 0, 512+96*tr.Len()+workers*(10+3*ganttWidth))
	buf = rep.AppendString(buf)
	summaryEnd := len(buf)
	buf = tr.AppendCSV(buf)
	csvEnd := len(buf)
	buf = tr.AppendGantt(buf, workers, ganttWidth, rep.Makespan)
	// buf is not written again, so its bytes may back the strings.
	text := unsafe.String(unsafe.SliceData(buf), len(buf))
	reply.Summary, reply.CSV, reply.Gantt = text[:summaryEnd], text[summaryEnd:csvEnd], text[csvEnd:]
	return nil
}

// AlgorithmsArgs is empty.
type AlgorithmsArgs struct{}

// AlgorithmsReply lists the scheduler names the daemon accepts.
type AlgorithmsReply struct{ Names []string }

// Algorithms implements the discovery RPC.
func (d *Daemon) Algorithms(args AlgorithmsArgs, reply *AlgorithmsReply) error {
	reply.Names = dls.Names()
	return nil
}

// ListJobsArgs is empty.
type ListJobsArgs struct{}

// ListJobsReply carries all job summaries plus the daemon's active
// co-scheduling policy.
type ListJobsReply struct {
	Jobs []Job
	// Policy is the normalized co-scheduling policy name (partition,
	// fair or srpt).
	Policy string
}

// ListJobs returns all job summaries in ascending ID order.
func (d *Daemon) ListJobs(args ListJobsArgs, reply *ListJobsReply) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	reply.Policy = d.cosched
	if len(d.jobs) > 0 {
		reply.Jobs = make([]Job, 0, len(d.jobs))
	}
	for _, j := range d.jobs {
		reply.Jobs = append(reply.Jobs, d.summaryLocked(j))
	}
	return nil
}

// Wait blocks until the scheduler is idle: no job running and none
// queued (used by tests and clean shutdown).
func (d *Daemon) Wait() {
	d.mu.Lock()
	for len(d.running) > 0 || len(d.queue) > 0 {
		d.idle.Wait()
	}
	d.mu.Unlock()
}
