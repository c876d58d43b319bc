package daemon_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	"apstdv/internal/obs"
	"apstdv/internal/workload"
)

// runJobs submits n copies of the test job one after another and waits
// for each, returning their ids in finishing order.
func runJobs(t *testing.T, c *client.Client, n int) []int {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		reply, err := c.Submit(taskXML, "", "", &daemon.SimApp{UnitCost: 0.1, BytesPerUnit: 1000})
		if err != nil {
			t.Fatal(err)
		}
		job, err := waitDone(c, reply.JobID, 10*time.Second, time.Millisecond)
		if err != nil || job.State != daemon.JobDone {
			t.Fatalf("job %d: state %s, %v", reply.JobID, job.State, err)
		}
		ids[i] = reply.JobID
	}
	return ids
}

// The payload budget, seen from a client: with room for two jobs'
// payloads and RetainJobs 0 (apstdvd's default, where only the budget
// bounds memory), every finished job keeps its summary, the newest keep
// their events and report, and the older ones answer in the two
// stripped states the protocol already had — an empty event tail with
// Dropped set, and a report that is no longer found.
func TestPayloadBudgetOverTheWire(t *testing.T) {
	c, d := startSimDaemon(t)
	ids := runJobs(t, c, 1)
	one := d.PayloadBytes()
	if one == 0 {
		t.Fatal("a finished job accounts for no payload")
	}
	d.SetPayloadBudget(2*one + one/2)
	ids = append(ids, runJobs(t, c, 5)...)

	listing, err := c.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	jobs := listing.Jobs
	if len(jobs) != len(ids) {
		t.Fatalf("%d summaries for %d jobs", len(jobs), len(ids))
	}
	for i, j := range jobs {
		if j.ID != ids[i] || j.State != daemon.JobDone || j.Makespan <= 0 || j.Chunks == 0 {
			t.Errorf("summary %d did not survive: %+v", i, j)
		}
	}
	if got := d.PayloadBytes(); got != 2*one {
		t.Errorf("daemon holds %d payload bytes, want two jobs' worth (%d)", got, 2*one)
	}

	for _, id := range ids[len(ids)-2:] {
		evs, state, dropped, err := c.Events(id, -1)
		if err != nil || dropped || state != daemon.JobDone || len(evs) == 0 || evs[len(evs)-1].Type != obs.RunFinished {
			t.Errorf("recent job %d: %d events, state %s, dropped %v, %v", id, len(evs), state, dropped, err)
		}
		if rep, err := c.Report(id); err != nil || rep.CSV == "" {
			t.Errorf("recent job %d: report: %v", id, err)
		}
	}
	for _, id := range ids[:len(ids)-2] {
		evs, state, dropped, err := c.Events(id, -1)
		if err != nil || len(evs) != 0 || !dropped || state != daemon.JobDone {
			t.Errorf("stripped job %d: %d events, state %s, dropped %v, %v; want an empty tail with Dropped", id, len(evs), state, dropped, err)
		}
		// A cursor at or past the job's last event has missed nothing.
		if _, _, dropped, err := c.Events(id, 1<<40); err != nil || dropped {
			t.Errorf("stripped job %d, cursor past the end: dropped %v, %v", id, dropped, err)
		}
		if _, err := c.Report(id); !errors.Is(err, daemon.ErrJobNotFound) {
			t.Errorf("stripped job %d: report error %v, want ErrJobNotFound", id, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		seen := 0
		if err := c.FollowEventsFrom(ctx, id, -1, time.Millisecond, func(obs.Event) { seen++ }); err != nil || seen != 0 {
			t.Errorf("following stripped job %d: %d events, %v; want a clean end", id, seen, err)
		}
		cancel()
	}
}

// Eviction by count gives the payload back as well: once every job that
// ran has been pushed out by later (payload-free) rejections, the
// budgeted total is zero again.
func TestPayloadTotalReturnsToZero(t *testing.T) {
	d, err := daemon.New(daemon.Config{
		Mode: daemon.ModeSim, Platform: workload.Meteor(4), Seed: 1, RetainJobs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func() error {
		var reply daemon.SubmitReply
		return d.Submit(daemon.SubmitArgs{TaskXML: taskXML, SimApp: &daemon.SimApp{UnitCost: 0.1, BytesPerUnit: 1000}}, &reply)
	}
	for i := 0; i < 5; i++ {
		if err := submit(); err != nil {
			t.Fatal(err)
		}
		d.Wait()
	}
	if d.PayloadBytes() == 0 {
		t.Fatal("three retained done jobs account for no payload")
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := submit(); !errors.Is(err, daemon.ErrDraining) {
			t.Fatalf("submission while draining: %v", err)
		}
	}
	if got := d.PayloadBytes(); got != 0 {
		t.Errorf("%d payload bytes still accounted after every job that ran was evicted", got)
	}
	var reply daemon.ListJobsReply
	if err := d.ListJobs(daemon.ListJobsArgs{}, &reply); err != nil || len(reply.Jobs) != 3 {
		t.Fatalf("ListJobs: %d jobs, %v", len(reply.Jobs), err)
	}
	for _, j := range reply.Jobs {
		if j.State != daemon.JobRejected {
			t.Errorf("job %d (%s) survived eviction", j.ID, j.State)
		}
	}
}
