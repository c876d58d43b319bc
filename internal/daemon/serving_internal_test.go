package daemon

// In-package tests of what a served job costs to run and to keep: slot
// reuse, the retained-id index behind ListJobs, and the race-freedom of
// the read RPCs against a stream of jobs finishing, being stripped and
// being evicted. They reach unexported state (d.slots, d.jobs,
// d.retired, d.payloadMax) the way the scheduler tests swap runFn.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apstdv/internal/obs"
	"apstdv/internal/workload"
)

// servedSpecs are four jobs of different shape: a planned multi-round
// run, two short ones (one under uncertainty), and a 2400-chunk run
// whose ~9600 events fill every page of the ring and wrap it.
var servedSpecs = []struct {
	xml string
	app SimApp
}{
	{`<task executable="app" input="big">
 <divisibility input="big" method="callback" load="500" callback="cb" algorithm="umr" probe_load="5"/>
</task>`, SimApp{UnitCost: 0.1, BytesPerUnit: 1000}},
	{`<task executable="app" input="big">
 <divisibility input="big" method="callback" load="300" callback="cb" algorithm="simple-1" probe_load="3"/>
</task>`, SimApp{UnitCost: 0.05, BytesPerUnit: 500, Gamma: 0.1}},
	{`<task executable="app" input="big">
 <divisibility input="big" method="callback" load="40" callback="cb" algorithm="wf" probe_load="2"/>
</task>`, SimApp{UnitCost: 0.2, BytesPerUnit: 100}},
	{`<task executable="app" input="big">
 <divisibility input="big" method="callback" load="2400" callback="cb" algorithm="simple-600"/>
</task>`, SimApp{UnitCost: 0.05, BytesPerUnit: 1000}},
}

func newServedDaemon(t *testing.T, maxJobs, retain int) *Daemon {
	t.Helper()
	d, err := New(Config{
		Mode: ModeSim, Platform: workload.Meteor(4), Seed: 1,
		MaxConcurrentJobs: maxJobs, RetainJobs: retain,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func submitSpec(t *testing.T, d *Daemon, spec int) int {
	t.Helper()
	app := servedSpecs[spec].app
	var reply SubmitReply
	if err := d.Submit(SubmitArgs{TaskXML: servedSpecs[spec].xml, SimApp: &app}, &reply); err != nil {
		t.Fatal(err)
	}
	return reply.JobID
}

// servedResult is everything a client can read back about a done job.
type servedResult struct {
	makespan float64
	chunks   int
	csv      string
	events   []obs.Event
	dropped  bool // the ring wrapped: the tail does not start at seq 0
}

// readResult collects a done job's result. The lifecycle events the
// daemon splices in carry wall-clock waits; those two fields are
// cleared, everything else — types, seqs, every engine payload field —
// is compared as is.
func readResult(t *testing.T, d *Daemon, id int) servedResult {
	t.Helper()
	var st StatusReply
	if err := d.Status(StatusArgs{JobID: id}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Job.State != JobDone {
		t.Fatalf("job %d is %s: %s", id, st.Job.State, st.Job.Err)
	}
	var rep ReportReply
	if err := d.Report(ReportArgs{JobID: id}, &rep); err != nil {
		t.Fatal(err)
	}
	var ev EventsReply
	if err := d.Events(EventsArgs{JobID: id, AfterSeq: -1}, &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Events) == 0 || ev.Dropped != (ev.Events[0].Seq > 0) {
		t.Fatalf("job %d: %d events, dropped=%v", id, len(ev.Events), ev.Dropped)
	}
	for i := range ev.Events {
		if strings.HasPrefix(string(ev.Events[i].Type), "job_") {
			ev.Events[i].T, ev.Events[i].Dur = 0, 0
		}
	}
	return servedResult{st.Job.Makespan, st.Job.Chunks, rep.CSV, ev.Events, ev.Dropped}
}

// Report cuts its three texts from one buffer; each must be exactly
// what the trace's io.Writer form of it writes (and those are held to
// their references in internal/trace).
func TestReportReplyMatchesWriterForms(t *testing.T) {
	for s := range servedSpecs {
		d := newServedDaemon(t, 1, 0)
		id := submitSpec(t, d, s)
		d.Wait()
		var rep ReportReply
		if err := d.Report(ReportArgs{JobID: id}, &rep); err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		tr := d.jobLocked(id).tr
		d.mu.Unlock()
		workers := len(d.cfg.Platform.Workers)
		var csv, gantt strings.Builder
		if err := tr.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := tr.Gantt(&gantt, workers, 100); err != nil {
			t.Fatal(err)
		}
		if want := tr.BuildReport(workers).String(); rep.Summary != want {
			t.Errorf("spec %d: summary %q, want %q", s, rep.Summary, want)
		}
		if rep.CSV != csv.String() || strings.Count(rep.CSV, "\n") != 1+tr.Len() {
			t.Errorf("spec %d: CSV differs from WriteCSV's:\n%s", s, rep.CSV)
		}
		if rep.Gantt != gantt.String() || !strings.HasPrefix(rep.Gantt, "w00 |") {
			t.Errorf("spec %d: Gantt differs from Gantt's:\n%s", s, rep.Gantt)
		}
	}
}

// freshResults runs each spec alone on its own daemon: the reference a
// reused slot must reproduce.
func freshResults(t *testing.T) []servedResult {
	t.Helper()
	out := make([]servedResult, len(servedSpecs))
	for s := range servedSpecs {
		d := newServedDaemon(t, 1, 0)
		id := submitSpec(t, d, s)
		d.Wait()
		out[s] = readResult(t, d, id)
		if out[s].chunks == 0 || out[s].makespan <= 0 {
			t.Fatalf("spec %d: reference run did nothing: %+v", s, out[s])
		}
	}
	return out
}

func checkResult(t *testing.T, what string, got, want servedResult) {
	t.Helper()
	if got.makespan != want.makespan || got.chunks != want.chunks {
		t.Errorf("%s: makespan %v chunks %d, fresh daemon %v and %d", what, got.makespan, got.chunks, want.makespan, want.chunks)
	}
	if got.csv != want.csv {
		t.Errorf("%s: report CSV differs from a fresh daemon's", what)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: event stream differs from a fresh daemon's (%d vs %d events)", what, len(got.events), len(want.events))
	}
}

// A job run on a reused execution slot — backend reset in place, engine
// arena recycled, ring pages from the pool — is indistinguishable from
// the same job on a fresh daemon, one at a time and four at a time; and
// a retained job's report, cloned out of the arena, does not change when
// later jobs run in the slot it ran in.
func TestSlotReuseMatchesFreshDaemon(t *testing.T) {
	fresh := freshResults(t)

	t.Run("concurrency=1", func(t *testing.T) {
		d := newServedDaemon(t, 1, 0)
		order := []int{1, 3, 0, 2, 3, 1, 1, 0}
		ids := make([]int, len(order))
		first := make([]servedResult, len(order))
		for i, s := range order {
			ids[i] = submitSpec(t, d, s)
			d.Wait()
			first[i] = readResult(t, d, ids[i])
			checkResult(t, fmt.Sprintf("run %d (spec %d)", i, s), first[i], fresh[s])
		}
		if len(d.slots) != 1 || d.slots[0].backend == nil {
			t.Fatalf("sequential jobs left %d idle slots, want the one they all ran in", len(d.slots))
		}
		for i, id := range ids {
			if again := readResult(t, d, id); !reflect.DeepEqual(again, first[i]) {
				t.Errorf("job %d read differently after later jobs reused its slot", id)
			}
		}
	})

	t.Run("concurrency=4", func(t *testing.T) {
		d := newServedDaemon(t, 4, 0)
		var ids, specs []int
		for round := 0; round < 3; round++ {
			for i := 0; i < 8; i++ {
				s := (i + round) % len(servedSpecs)
				ids, specs = append(ids, submitSpec(t, d, s)), append(specs, s)
			}
			d.Wait()
		}
		for i, id := range ids {
			checkResult(t, fmt.Sprintf("job %d (spec %d)", id, specs[i]), readResult(t, d, id), fresh[specs[i]])
		}
		if n := len(d.slots); n < 1 || n > 4 {
			t.Errorf("%d idle slots after runs four at a time, want 1..4", n)
		}
	})
}

// The free list of slots never outgrows what can run at once.
func TestSlotFreeListIsBounded(t *testing.T) {
	d, _ := newSchedDaemon(t, 2, 0)
	var held []*runSlot
	d.mu.Lock()
	for i := 0; i < 5; i++ {
		held = append(held, d.takeSlotLocked())
	}
	for _, s := range held {
		d.putSlotLocked(s)
	}
	n := len(d.slots)
	d.mu.Unlock()
	if n != 2 {
		t.Errorf("free list holds %d slots at a concurrency cap of 2", n)
	}
}

// burnIDs drains an idle daemon, so that every later submission is
// fast-rejected, and issues n ids that way.
func burnIDs(t *testing.T, d *Daemon, n int) {
	t.Helper()
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	args := SubmitArgs{TaskXML: schedTask}
	for i := 0; i < n; i++ {
		var reply SubmitReply
		if err := d.Submit(args, &reply); !errors.Is(err, ErrDraining) {
			t.Fatalf("submission %d: %v, want a draining rejection", i, err)
		}
	}
}

// minListJobs returns each daemon's fastest ListJobs call of many, taken
// in turns: a burst of load from the packages tested alongside slows a
// whole run of calls, and must land on both sides to cancel.
func minListJobs(t *testing.T, a, b *Daemon) (bestA, bestB time.Duration) {
	t.Helper()
	call := func(d *Daemon, best *time.Duration) {
		var r ListJobsReply
		t0 := time.Now()
		if err := d.ListJobs(ListJobsArgs{}, &r); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(t0); el < *best {
			*best = el
		}
	}
	bestA, bestB = time.Hour, time.Hour
	for i := 0; i < 200; i++ {
		call(a, &bestA)
		call(b, &bestB)
	}
	return bestA, bestB
}

// ListJobs costs what the daemon retains, not what it ever issued:
// after 40 000 ids at RetainJobs 256 it returns the 256 newest
// summaries in ascending id order from an index of exactly that length,
// in one allocation, and in the time a 400-id daemon takes.
func TestListJobsCostFollowsRetention(t *testing.T) {
	const retain, burned = 256, 40_000
	old := newServedDaemon(t, 1, retain)
	burnIDs(t, old, burned)

	var reply ListJobsReply
	if err := old.ListJobs(ListJobsArgs{}, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Jobs) != retain {
		t.Fatalf("ListJobs returned %d jobs, want %d", len(reply.Jobs), retain)
	}
	for i, j := range reply.Jobs {
		if want := burned - retain + 1 + i; j.ID != want || j.State != JobRejected || j.Code == "" {
			t.Fatalf("entry %d: id %d state %s code %q, want rejected job %d", i, j.ID, j.State, j.Code, want)
		}
	}
	if len(old.jobs) != retain || len(old.retired) != retain || old.nextID != burned {
		t.Fatalf("index holds %d jobs, %d retired, after %d ids", len(old.jobs), len(old.retired), old.nextID)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var r ListJobsReply
		old.ListJobs(ListJobsArgs{}, &r)
	})
	if allocs != 1 {
		t.Errorf("ListJobs made %.0f allocations, want 1 (the reply, sized to what is retained)", allocs)
	}
	young := newServedDaemon(t, 1, retain)
	burnIDs(t, young, 400)
	tYoung, tOld := minListJobs(t, young, old)
	if tOld > 3*tYoung+20*time.Microsecond {
		t.Errorf("ListJobs takes %v after %d ids and %v after 400: its cost grows with the daemon's age", tOld, burned, tYoung)
	}
}

// Report, Events and Status are safe to call from any goroutine while
// jobs finish (runJob writes the record), are stripped by the payload
// budget (set to almost nothing here) and are evicted by RetainJobs.
// The pollers chase the newest few ids, where all of that is happening.
// Run under -race: before the job's fields were read under d.mu, the
// detector fired on Report's read of job.State.
func TestReadRPCsRaceWithRetirement(t *testing.T) {
	d := newServedDaemon(t, 2, 3)
	d.payloadMax = 1
	const jobs = 150
	var newest atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for n := p; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				id := int(newest.Load()) - n%5
				var st StatusReply
				var rep ReportReply
				var ev EventsReply
				switch n % 3 {
				case 0:
					d.Status(StatusArgs{JobID: id}, &st)
				case 1:
					if err := d.Report(ReportArgs{JobID: id}, &rep); err == nil && !strings.HasPrefix(rep.CSV, "chunk,worker") {
						t.Errorf("job %d: report without a CSV header", id)
					}
				case 2:
					if err := d.Events(EventsArgs{JobID: id, AfterSeq: -1}, &ev); err == nil {
						for i := 1; i < len(ev.Events); i++ {
							if ev.Events[i].Seq != ev.Events[i-1].Seq+1 {
								t.Errorf("job %d: event tail jumps from seq %d to %d", id, ev.Events[i-1].Seq, ev.Events[i].Seq)
							}
						}
					}
				}
			}
		}(p)
	}
	for i := 0; i < jobs; i++ {
		newest.Store(int64(submitSpec(t, d, i%3)))
		if i%4 == 3 {
			d.Wait()
		}
	}
	d.Wait()
	close(stop)
	wg.Wait()

	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.jobs) != 3 || len(d.retired) != 3 {
		t.Errorf("%d jobs retained (%d retired), want 3", len(d.jobs), len(d.retired))
	}
	if d.stripped != len(d.retired)-1 || d.retired[d.stripped].events == nil {
		t.Errorf("payloads retained from cursor %d of %d retired under a 1-byte budget, want only the last job to finish", d.stripped, len(d.retired))
	}
}
