package daemon_test

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	"apstdv/internal/live"
	"apstdv/internal/workload"
)

// waitDone adapts the context-based WaitDone to the timeout style the
// tests use.
func waitDone(c *client.Client, jobID int, timeout, poll time.Duration) (daemon.Job, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.WaitDone(ctx, jobID, poll)
}

const taskXML = `<task executable="app" input="big">
 <divisibility input="big" method="callback" load="500" callback="cb" algorithm="umr" probe_load="5"/>
</task>`

func startSimDaemon(t *testing.T) (*client.Client, *daemon.Daemon) {
	t.Helper()
	d, err := daemon.New(daemon.Config{
		Mode:     daemon.ModeSim,
		Platform: workload.Meteor(4),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go d.ServeFrame(ln)
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, d
}

func TestDaemonConfigValidation(t *testing.T) {
	if _, err := daemon.New(daemon.Config{Mode: daemon.ModeSim}); err == nil {
		t.Error("sim mode without platform accepted")
	}
	if _, err := daemon.New(daemon.Config{Mode: daemon.ModeLive}); err == nil {
		t.Error("live mode without workers accepted")
	}
	if _, err := daemon.New(daemon.Config{Mode: "weird"}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestSubmitRunReport(t *testing.T) {
	c, _ := startSimDaemon(t)
	reply, err := c.Submit(taskXML, "", "", &daemon.SimApp{UnitCost: 0.1, BytesPerUnit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Algorithm != "umr" {
		t.Errorf("algorithm %q taken from spec, want umr", reply.Algorithm)
	}
	if reply.TotalLoad != 500 {
		t.Errorf("load %g, want 500", reply.TotalLoad)
	}
	job, err := waitDone(c, reply.JobID, 10*time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != daemon.JobDone {
		t.Fatalf("job state %s: %s", job.State, job.Err)
	}
	if job.Makespan <= 0 || job.Chunks == 0 {
		t.Errorf("job results: %+v", job)
	}
	rep, err := c.Report(reply.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Summary, "umr") {
		t.Errorf("summary %q", rep.Summary)
	}
	if !strings.HasPrefix(rep.CSV, "chunk,worker") {
		t.Errorf("CSV header missing: %q", rep.CSV[:40])
	}
}

func TestSubmitAlgorithmOverride(t *testing.T) {
	c, _ := startSimDaemon(t)
	reply, err := c.Submit(taskXML, "wf", "", &daemon.SimApp{UnitCost: 0.1, BytesPerUnit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Algorithm != "wf" {
		t.Errorf("override ignored: %q", reply.Algorithm)
	}
}

func TestSubmitRejectsBadXML(t *testing.T) {
	c, _ := startSimDaemon(t)
	if _, err := c.Submit("<task>", "", "", nil); err == nil {
		t.Error("bad XML accepted")
	}
	if _, err := c.Submit(taskXML, "quantum-annealer", "", nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestSubmitRefusesNonFiniteSpec: a probe_load of NaN or +Inf used to
// pass every spec check and reach the simulator, whose panic on a
// non-finite event time ended the daemon. Such a spec is refused at
// submission, and the daemon goes on serving.
func TestSubmitRefusesNonFiniteSpec(t *testing.T) {
	c, _ := startSimDaemon(t)
	sim := &daemon.SimApp{UnitCost: 0.1, BytesPerUnit: 1000}
	for _, v := range []string{"NaN", "+Inf"} {
		bad := strings.Replace(taskXML, `probe_load="5"`, `probe_load="`+v+`"`, 1)
		if reply, err := c.Submit(bad, "", "", sim); err == nil {
			t.Errorf("probe_load=%s accepted as job %d", v, reply.JobID)
		}
	}
	reply, err := c.Submit(taskXML, "", "", sim)
	if err != nil {
		t.Fatal(err)
	}
	job, err := waitDone(c, reply.JobID, 10*time.Second, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != daemon.JobDone {
		t.Fatalf("job after the refusals: state %s: %s", job.State, job.Err)
	}
}

// TestSubmitSurvivesRunPanic: probe_load="1e308" is finite and passes
// every spec check, but the probe chunk's bytes overflow to +Inf and the
// simulator panics scheduling an event at a non-finite time. That panic
// used to end the daemon. The job fails with it instead, and the next
// job runs to completion.
func TestSubmitSurvivesRunPanic(t *testing.T) {
	c, _ := startSimDaemon(t)
	sim := &daemon.SimApp{UnitCost: 0.1, BytesPerUnit: 1000}
	bad := strings.Replace(taskXML, `probe_load="5"`, `probe_load="1e308"`, 1)
	for _, spec := range []string{bad, taskXML} {
		reply, err := c.Submit(spec, "", "", sim)
		if err != nil {
			t.Fatal(err)
		}
		job, err := waitDone(c, reply.JobID, 10*time.Second, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if spec == bad {
			if job.State != daemon.JobFailed || !strings.HasPrefix(job.Err, "daemon: job panicked: ") {
				t.Errorf("overflowing probe job: state %s, error %q; want failed with the panic", job.State, job.Err)
			}
		} else if job.State != daemon.JobDone {
			t.Errorf("job after the panic: state %s: %s", job.State, job.Err)
		}
	}
}

func TestStatusUnknownJob(t *testing.T) {
	c, _ := startSimDaemon(t)
	if _, err := c.Status(999); err == nil {
		t.Error("unknown job accepted")
	}
}

func TestReportBeforeDone(t *testing.T) {
	c, _ := startSimDaemon(t)
	// Unknown job: no report.
	if _, err := c.Report(12345); err == nil {
		t.Error("report for unknown job accepted")
	}
}

func TestAlgorithmsRPC(t *testing.T) {
	c, _ := startSimDaemon(t)
	names, err := c.Algorithms()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"umr", "wf", "rumr", "fixed-rumr", "simple-1"} {
		if !found[want] {
			t.Errorf("algorithm list missing %q: %v", want, names)
		}
	}
}

func TestListJobs(t *testing.T) {
	c, _ := startSimDaemon(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(taskXML, "", "", &daemon.SimApp{UnitCost: 0.1, BytesPerUnit: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	listing, err := c.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs := listing.Jobs
	if len(jobs) != 3 {
		t.Fatalf("%d jobs listed", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != i+1 {
			t.Errorf("job order: %v", jobs)
		}
	}
}

func TestDefaultAlgorithmIsFixedRUMR(t *testing.T) {
	// The paper's §4.3 recommendation to APST-DV users.
	c, _ := startSimDaemon(t)
	noAlg := strings.Replace(taskXML, ` algorithm="umr"`, "", 1)
	reply, err := c.Submit(noAlg, "", "", &daemon.SimApp{UnitCost: 0.1, BytesPerUnit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Algorithm != "fixed-rumr" {
		t.Errorf("default algorithm %q, want fixed-rumr", reply.Algorithm)
	}
}

// smallLiveTask finishes in milliseconds on a 10 000-iteration worker.
const smallLiveTask = `<task executable="app" input="big">
 <divisibility input="big" method="callback" load="40" callback="cb" algorithm="simple-1" probe_load="2"/>
</task>`

func TestLiveModeDaemon(t *testing.T) {
	svc := live.NewWorkerService(10000, 1)
	addr, stop, err := live.Serve(svc)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	d, err := daemon.New(daemon.Config{
		Mode:        daemon.ModeLive,
		LiveWorkers: []live.WorkerConn{{Addr: addr}},
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

	reply, err := c.Submit(smallLiveTask, "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	job, err := waitDone(c, reply.JobID, 15*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != daemon.JobDone {
		t.Fatalf("live job %s: %s", job.State, job.Err)
	}
	if svc.Computed() == 0 {
		t.Error("live worker did no work")
	}
}

// countingListener counts the accepted connections still open.
type countingListener struct {
	net.Listener
	open atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.open.Add(1)
	return &countedConn{Conn: c, l: l}, nil
}

type countedConn struct {
	net.Conn
	l    *countingListener
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.l.open.Add(-1) })
	return c.Conn.Close()
}

// TestLiveJobsCloseWorkerConnections pins that a finished live job
// closes the worker connections its run dialed: after three jobs run to
// completion against one worker, the worker holds no open connection.
func TestLiveJobsCloseWorkerConnections(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	stop := live.ServeListener(live.NewWorkerService(10000, 1), ln)
	defer stop()
	d, err := daemon.New(daemon.Config{
		Mode:        daemon.ModeLive,
		LiveWorkers: []live.WorkerConn{{Addr: inner.Addr().String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var reply daemon.SubmitReply
		if err := d.Submit(daemon.SubmitArgs{TaskXML: smallLiveTask}, &reply); err != nil {
			t.Fatal(err)
		}
	}
	d.Wait()
	var jobs daemon.ListJobsReply
	if err := d.ListJobs(daemon.ListJobsArgs{}, &jobs); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs.Jobs {
		if j.State != daemon.JobDone {
			t.Fatalf("job %d %s: %s", j.ID, j.State, j.Err)
		}
	}
	// The worker tears a connection down when it reads the client's
	// close, so give the teardown a moment.
	deadline := time.Now().Add(5 * time.Second)
	for ln.open.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := ln.open.Load(); n != 0 {
		t.Fatalf("%d worker connections still open after 3 finished jobs, want 0", n)
	}
}
