package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	"apstdv/internal/divide"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/rng"
	"apstdv/internal/spec"
	"apstdv/internal/transport"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// jobKind is one kind of served job: a callback-method task of load
// work units under a named algorithm.
type jobKind struct {
	load int
	alg  string
}

var (
	kindSmall = jobKind{16, "simple-1"}     // 16 chunks, no plan, no probing
	kindUMR   = jobKind{20000, "umr"}       // one UMR plan, 32 chunks
	kindBig   = jobKind{4000, "simple-250"} // 4000 chunks, several ms of engine
)

var benchSimApp = daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 1000}

func jobSpecXML(load int, alg string) string {
	return fmt.Sprintf(`<task executable="bench" input="virtual">
 <divisibility input="virtual" method="callback" callback="cb" load="%d" algorithm="%s"/>
</task>`, load, alg)
}

func (k jobKind) xml() string { return jobSpecXML(k.load, k.alg) }

// servedPlatform is the platform the daemon child simulates on.
func servedPlatform() *model.Platform { return workload.DAS2(16) }

// oracleRun builds, from the same XML the daemon is sent, the run the
// daemon's sim mode executes for it: the application of
// Daemon.buildApp, the work-unit divider, the spec's probe load, on
// grid.New(platform, app, Config{Seed: 1}).
func oracleRun(k jobKind) (soloRun, error) {
	task, err := spec.Parse(strings.NewReader(k.xml()))
	if err != nil {
		return soloRun{}, err
	}
	div, err := divide.NewWorkUnits(int(task.Divisibility.Load))
	if err != nil {
		return soloRun{}, err
	}
	app := &model.Application{
		Name: task.Executable, TotalLoad: units.Load(div.TotalLoad()),
		BytesPerUnit: units.Bytes(benchSimApp.BytesPerUnit),
		UnitCost:     units.Seconds(benchSimApp.UnitCost),
		MinChunk:     1,
	}
	return soloRun{
		cell:     fmt.Sprintf("%s/load%d", k.alg, k.load),
		platform: servedPlatform(), app: app, newAlg: algByName(k.alg),
		gcfg: grid.Config{Seed: 1},
		ecfg: engine.Config{Divider: div, ProbeLoad: task.Divisibility.ProbeLoad},
	}, nil
}

// oracle executes each kind in process; every served job's Makespan and
// Chunks must equal its kind's.
func oracle(kinds []jobKind) (map[jobKind]outcome, []outcome, error) {
	byKind := map[jobKind]outcome{}
	var outs []outcome
	for _, k := range kinds {
		r, err := oracleRun(k)
		if err != nil {
			return nil, nil, err
		}
		tr, err := newSoloHarness().exec(&r, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle %s: %w", r.cell, err)
		}
		o := outcome{cell: r.cell, makespan: tr.Makespan(), chunks: tr.Len()}
		byKind[k] = o
		outs = append(outs, o)
	}
	return byKind, outs, nil
}

// --- the daemon child -------------------------------------------------

// The serving workloads run the daemon in a child process, so that the
// load generator and the daemon share no heap, collector or scheduler.
// The child hosts what `apstdvd -mode sim -transport frame` hosts;
// apstdvd itself cannot be used because it has no flag for RetainJobs.

const (
	childEnv      = "APSTDV_BENCH_CHILD"
	childTraceEnv = "APSTDV_BENCH_CHILD_TRACE"
)

// childStats is what the child reports about itself on request.
type childStats struct {
	CPUNs      int64   `json:"cpu_ns"`
	HWMKB      float64 `json:"hwm_kb"`
	RSSKB      float64 `json:"rss_kb"`
	Mallocs    uint64  `json:"mallocs"`
	HeapBytes  uint64  `json:"heap_bytes"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

func selfStats() childStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	return childStats{
		CPUNs: int64(cpuTime()), HWMKB: procStatusKB("VmHWM"), RSSKB: procStatusKB("VmRSS"),
		Mallocs: s[0].Value.Uint64(), HeapBytes: s[1].Value.Uint64(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// childMain is the child process: serve until stdin closes, answering
// each line on stdin with one line of statistics on stdout.
func childMain() error {
	cfg := daemon.Config{
		Mode: daemon.ModeSim, Platform: servedPlatform(), Seed: 1,
		MaxConcurrentJobs: 1, QueueDepth: 64, RetainJobs: 256,
	}
	if os.Getenv(childTraceEnv) != "" {
		cfg.Trace = otrace.New(0)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := d.NewFrameServer(transport.ServerConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(out, ln.Addr().String())
	if err := out.Flush(); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	enc := json.NewEncoder(out)
	for in.Scan() {
		if err := enc.Encode(selfStats()); err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}
	return <-served
}

// daemonChild is the parent's handle on a running child.
type daemonChild struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
}

func startChild(traced bool) (*daemonChild, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	if traced {
		cmd.Env = append(cmd.Env, childTraceEnv+"=1")
	}
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &daemonChild{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := c.out.ReadString('\n')
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("daemon child did not report its address: %w", err)
	}
	c.addr = strings.TrimSpace(line)
	return c, nil
}

func (c *daemonChild) stats() (childStats, error) {
	var s childStats
	if _, err := io.WriteString(c.stdin, "stats\n"); err != nil {
		return s, fmt.Errorf("daemon child: %w", err)
	}
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return s, fmt.Errorf("daemon child: %w", err)
	}
	return s, json.Unmarshal(line, &s)
}

// stop closes the child's stdin, which makes it drain and exit, and
// waits for it; a child that does not exit in time is killed.
func (c *daemonChild) stop() error {
	c.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return errors.New("daemon child did not exit within 10 s and was killed")
	}
}

// serveSetup starts a child and times child start to first job observed
// done, rounds times over or more (see moreSetups); the last child
// stays up for the run.
func serveSetup(rounds int, traced bool) (*daemonChild, []float64, error) {
	var times []float64
	began := time.Now()
	for r := 0; ; r++ {
		t0 := time.Now()
		c, err := startChild(traced)
		if err != nil {
			return nil, nil, err
		}
		err = func() error {
			cl, err := client.DialOptions(c.addr, client.Options{})
			if err != nil {
				return err
			}
			defer cl.Close()
			rep, err := cl.Submit(kindSmall.xml(), kindSmall.alg, "", &benchSimApp)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			job, err := cl.WaitDone(ctx, rep.JobID, 200*time.Microsecond)
			if err == nil && job.State != daemon.JobDone {
				err = fmt.Errorf("first job ended %s: %s", job.State, job.Err)
			}
			return err
		}()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			c.stop()
			return nil, nil, fmt.Errorf("serving set-up: %w", err)
		}
		if !moreSetups(r+1, began, rounds) {
			return c, times, nil
		}
		if err := c.stop(); err != nil {
			return nil, nil, fmt.Errorf("serving set-up: %w", err)
		}
	}
}

// --- what the generator records ----------------------------------------

// servedJob is one operation as the generator saw it.
type servedJob struct {
	kind      jobKind
	scheduled time.Time // open loop: when the arrival was due
	sent      time.Time // Submit sent
	replied   time.Time // Submit reply received
	observed  time.Time // closed loop: done observed by the client
	statuses  int       // closed loop: Status calls until done
	job       daemon.Job
	accepted  bool
	seen      bool // a terminal state was observed
}

// clientSpanJSON is a client-side RPC span of the traced serving run.
type clientSpanJSON struct {
	Client  int    `json:"client"`
	Name    string `json:"name"`
	Job     int    `json:"job"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog collects client spans when tracing; a nil log records nothing.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []clientSpanJSON
}

func (l *spanLog) add(client int, name string, job int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < maxKeptSpans {
		l.spans = append(l.spans, clientSpanJSON{client, name, job, int64(start.Sub(l.t0)), int64(end.Sub(l.t0))})
	}
	l.mu.Unlock()
}

func terminal(s daemon.JobState) bool {
	return s == daemon.JobDone || s == daemon.JobFailed || s == daemon.JobCancelled || s == daemon.JobRejected
}

// closedLoop runs clients callers, each on its own frame connection,
// each repeating Submit, Status until done, Report, until stop, asked
// before every operation with the number finished so far, says so. It
// returns the operations in completion order per client.
func closedLoop(addr string, clients int, tracer *otrace.Collector, log *spanLog, stop func(done int64) bool) ([][]servedJob, error) {
	var done atomic.Int64
	xml := kindSmall.xml()
	out := make([][]servedJob, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl, err := client.DialOptions(addr, client.Options{Conns: 1, Tracer: tracer})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop(done.Load()) {
				op := servedJob{kind: kindSmall, sent: time.Now()}
				rep, err := cl.Submit(xml, kindSmall.alg, "", &benchSimApp)
				op.replied = time.Now()
				log.add(c, "client.Submit", rep.JobID, op.sent, op.replied)
				if err != nil {
					errs[c] = fmt.Errorf("closed loop submit: %w", err)
					return
				}
				op.accepted = true
				for !terminal(op.job.State) {
					t0 := time.Now()
					op.job, err = cl.Status(rep.JobID)
					op.observed = time.Now()
					op.statuses++
					log.add(c, "client.Status", rep.JobID, t0, op.observed)
					if err != nil {
						errs[c] = fmt.Errorf("closed loop status: %w", err)
						return
					}
				}
				op.seen = true
				if op.job.State == daemon.JobDone {
					t0 := time.Now()
					_, err = cl.Report(rep.JobID)
					log.add(c, "client.Report", rep.JobID, t0, time.Now())
					if err != nil {
						errs[c] = fmt.Errorf("closed loop report: %w", err)
						return
					}
				}
				out[c] = append(out[c], op)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// arrival is one entry of the open loop's schedule.
type arrival struct {
	at   time.Duration
	kind jobKind
}

// poissonSchedule is the open loop's input for one segment (the warm-up
// or a block): exponential gaps at rate per second over dur, each
// arrival big with probability bigShare. It is a pure function of its
// arguments.
func poissonSchedule(seed uint64, segment int, rate float64, dur time.Duration, bigShare float64) []arrival {
	gaps := rng.Stream(seed, fmt.Sprintf("bench/open/gaps/%d", segment))
	mix := rng.Stream(seed, fmt.Sprintf("bench/open/mix/%d", segment))
	var out []arrival
	at := 0.0
	for {
		at += gaps.Exp(1 / rate)
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		k := kindUMR
		if mix.Float64() < bigShare {
			k = kindBig
		}
		out = append(out, arrival{d, k})
	}
}

const (
	// openRate puts the one execution slot at about 35% utilisation. At
	// 600/s it is at 50%, where half the jobs wait and half do not: the
	// median latency then flips between the two with the seed (43%
	// run-to-run spread measured); at 400/s it stays on the no-wait side
	// while the tail still queues behind the big jobs.
	openRate       = 400.0
	openBigShare   = 0.10
	openSubmitters = 32
	openPoll       = 50 * time.Millisecond
	openLimit      = 50 * time.Millisecond
	sleepSlack     = 300 * time.Microsecond
)

// openStats are the generator's own counts for one window.
type openStats struct {
	offered, accepted, rejected, shed, errors int
	lateness                                  []float64 // ns, actual send minus scheduled
}

// openLoop plays the schedule against the daemon on an absolute
// timeline starting at start. One generator goroutine hands each due
// arrival to one of openSubmitters submitters; an arrival that finds
// none free is shed. One poller lists the jobs every openPoll and
// records each terminal job once.
func openLoop(addr string, sched []arrival, start time.Time, tracer *otrace.Collector, log *spanLog) ([]servedJob, openStats, error) {
	var st openStats
	cl, err := client.DialOptions(addr, client.Options{Conns: 2, Tracer: tracer})
	if err != nil {
		return nil, st, err
	}
	defer cl.Close()

	ops := make([]servedJob, len(sched))
	var mu sync.Mutex // guards byID, seenJobs and the counts in st
	byID := map[int]int{}
	seenJobs := map[int]daemon.Job{}
	var firstErr error

	work := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < openSubmitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := range work {
				op := &ops[i]
				op.sent = time.Now()
				rep, err := cl.Submit(op.kind.xml(), op.kind.alg, "", &benchSimApp)
				op.replied = time.Now()
				log.add(s, "client.Submit", rep.JobID, op.sent, op.replied)
				mu.Lock()
				switch {
				case err == nil:
					op.accepted = true
					byID[rep.JobID] = i
					st.accepted++
				case errors.Is(err, daemon.ErrQueueFull):
					st.rejected++
				default:
					st.errors++
					if firstErr == nil {
						firstErr = err
					}
				}
				mu.Unlock()
			}
		}(s)
	}

	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	poll := func() {
		t0 := time.Now()
		reply, err := cl.ListJobs()
		log.add(openSubmitters, "client.ListJobs", 0, t0, time.Now())
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			st.errors++
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		for _, j := range reply.Jobs {
			if _, ok := seenJobs[j.ID]; !ok && terminal(j.State) {
				seenJobs[j.ID] = j
			}
		}
	}
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(openPoll)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				poll()
			}
		}
	}()

	for i, a := range sched {
		ops[i].kind = a.kind
		ops[i].scheduled = start.Add(a.at)
		// Sleep to just short of the due time, then yield until it
		// comes: a bare Sleep overshoots by half a millisecond on a
		// busy two-core box, which the latency would then carry.
		if d := time.Until(ops[i].scheduled); d > sleepSlack {
			time.Sleep(d - sleepSlack)
		}
		for time.Until(ops[i].scheduled) > 0 {
			runtime.Gosched()
		}
		st.lateness = append(st.lateness, float64(time.Since(ops[i].scheduled)))
		st.offered++
		select {
		case work <- i:
		default:
			mu.Lock()
			st.shed++
			mu.Unlock()
		}
	}
	close(work)
	wg.Wait()

	// Drain: every accepted job must reach a terminal state.
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		missing := 0
		for id := range byID {
			if _, ok := seenJobs[id]; !ok {
				missing++
			}
		}
		mu.Unlock()
		if missing == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(openPoll)
	}
	close(stopPoll)
	<-pollDone
	poll()
	for id, i := range byID {
		if j, ok := seenJobs[id]; ok {
			ops[i].job, ops[i].seen = j, true
		}
	}
	if st.errors > 0 {
		return ops, st, fmt.Errorf("open loop: %d transport errors, first: %w", st.errors, firstErr)
	}
	return ops, st, nil
}

// check compares a served job against the in-process oracle.
func (op *servedJob) check(want map[jobKind]outcome) bool {
	o := want[op.kind]
	return op.accepted && op.seen && op.job.State == daemon.JobDone &&
		math.Float64bits(op.job.Makespan) == math.Float64bits(o.makespan) && op.job.Chunks == o.chunks
}

// failure names why an operation that failed check did.
func (op *servedJob) failure() string {
	switch {
	case !op.accepted:
		return "not accepted (shed, refused or transport error)"
	case !op.seen:
		return "never seen finished"
	case op.job.State != daemon.JobDone:
		return "ended " + string(op.job.State)
	}
	return "wrong makespan or chunk count"
}

// replayWorkload makes a sim workload out of a serving job mix, so that
// the traced run can decorate the engine and backend the daemon child
// runs out of reach: the same runs, in process.
func replayWorkload(name string, kinds []jobKind) (*simWorkload, error) {
	var runs []soloRun
	for _, k := range kinds {
		r, err := oracleRun(k)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return &simWorkload{name: name, runs: len(runs), pass: soloPass(newSoloHarness(), runs)}, nil
}
