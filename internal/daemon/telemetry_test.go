package daemon_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/obs"
	"apstdv/internal/workload"
)

// callbackSpec needs no files on disk: the callback division method
// takes its load directly from the spec.
const callbackSpec = `<task executable="proc" input="virtual">
 <divisibility input="virtual" method="callback" callback="cb" load="2000" probe_load="50" algorithm="rumr"/>
</task>`

// TestTelemetryEndToEnd drives the daemon's full observability surface:
// submit a simulated job, follow its event stream through the Events
// RPC until RunFinished arrives, then read /metrics and /healthz over
// HTTP and check the series the job must have moved.
func TestTelemetryEndToEnd(t *testing.T) {
	d, err := daemon.New(daemon.Config{
		Mode:     daemon.ModeSim,
		Platform: workload.Meteor(3),
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.TelemetryHandler())
	defer srv.Close()

	var reply daemon.SubmitReply
	if err := d.Submit(daemon.SubmitArgs{TaskXML: callbackSpec}, &reply); err != nil {
		t.Fatal(err)
	}

	// Tail the event stream until the run closes with RunFinished.
	var events []obs.Event
	after := int64(-1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var er daemon.EventsReply
		if err := d.Events(daemon.EventsArgs{JobID: reply.JobID, AfterSeq: after}, &er); err != nil {
			t.Fatal(err)
		}
		if er.Dropped {
			t.Fatal("event ring dropped events on a small job")
		}
		events = append(events, er.Events...)
		if len(events) > 0 {
			after = events[len(events)-1].Seq
		}
		if len(events) > 0 && events[len(events)-1].Type == obs.RunFinished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no run_finished after 10s; %d events so far, state %s", len(events), er.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fin := events[len(events)-1]
	if fin.Err != "" || fin.Makespan <= 0 {
		t.Fatalf("run finished dirty: %+v", fin)
	}
	seen := map[obs.EventType]bool{}
	count := map[obs.EventType]float64{}
	dispatched, uplinkBusy := 0.0, 0.0
	for i, ev := range events {
		if ev.Seq != int64(i) {
			t.Fatalf("tail not gap-free: event %d has seq %d", i, ev.Seq)
		}
		seen[ev.Type] = true
		count[ev.Type]++
		switch {
		case ev.Type == obs.UplinkBusy && !ev.Probe:
			dispatched++
		case ev.Type == obs.UplinkIdle:
			uplinkBusy += ev.Dur
		}
	}
	for _, want := range []obs.EventType{obs.ProbeStart, obs.ProbeResult, obs.PlanDone, obs.Dispatch, obs.ChunkDone, obs.UplinkBusy, obs.UplinkIdle} {
		if !seen[want] {
			t.Errorf("event stream missing %s", want)
		}
	}

	// The job is done; /metrics must show it and its chunks.
	body := httpGet(t, srv.URL+"/metrics")
	for _, series := range []string{
		"apstdv_jobs_submitted_total 1",
		"apstdv_jobs_done_total 1",
		"apstdv_jobs_running 0",
		"apstdv_chunks_done_total",
		"apstdv_uplink_busy_seconds_total",
		"apstdv_chunk_transfer_seconds_bucket",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	if ct := "text/plain; version=0.0.4"; !strings.Contains(body, "# TYPE") {
		t.Errorf("/metrics lacks TYPE headers (content type should be %s)", ct)
	}
	// The engine series carry exactly what the job's event stream says.
	for _, c := range []struct {
		series string
		want   float64
	}{
		{"apstdv_chunks_done_total", count[obs.ChunkDone]},
		{"apstdv_probes_done_total", count[obs.ProbeResult]},
		{"apstdv_chunks_dispatched_total", dispatched},
		{"apstdv_uplink_busy_seconds_total", uplinkBusy},
	} {
		if got := metricValue(t, body, c.series); got != c.want {
			t.Errorf("%s = %v, the event tail says %v", c.series, got, c.want)
		}
	}

	var h struct {
		Status      string `json:"status"`
		Mode        string `json:"mode"`
		JobsRunning int    `json:"jobs_running"`
		JobsTotal   int    `json:"jobs_total"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/healthz")), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Mode != "sim" || h.JobsTotal != 1 || h.JobsRunning != 0 {
		t.Errorf("healthz = %+v, want ok/sim with 1 finished job", h)
	}

	// pprof is mounted.
	if idx := httpGet(t, srv.URL+"/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index not served")
	}
}

// metricValue returns the value of an unlabelled series in a Prometheus
// text exposition.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
