package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	g := r.Gauge("test_gauge", "a gauge")
	h := r.Histogram("test_seconds", "a histogram", []float64{1, 10})

	c.Inc()
	c.Add(2.5)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %g, want 3.5", got)
	}
	g.Set(7)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %g, want 6", got)
	}
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Errorf("histogram sum = %g, want 106.5", h.Sum())
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	var gm *GridMetrics
	gm.EnqueueCompute(1)
	gm.BatchHold(1)
	gm.DownlinkBusy(1)
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("b_total", "second alphabetically? no — first is a_gauge")
	g := r.Gauge("a_gauge", "a gauge")
	h := r.Histogram("c_seconds", "durations", []float64{1, 10})
	c.Add(2)
	g.Set(1.5)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge\na_gauge 1.5\n",
		"# TYPE b_total counter\nb_total 2\n",
		"c_seconds_bucket{le=\"1\"} 1\n",
		"c_seconds_bucket{le=\"10\"} 2\n",
		"c_seconds_bucket{le=\"+Inf\"} 3\n",
		"c_seconds_sum 55.5\n",
		"c_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Sorted by name: a_gauge before b_total before c_seconds.
	if !(strings.Index(out, "a_gauge") < strings.Index(out, "b_total") &&
		strings.Index(out, "b_total") < strings.Index(out, "c_seconds")) {
		t.Errorf("metrics not sorted by name:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup_total", "")
	r.Counter("dup_total", "")
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "")
	h := r.Histogram("ch_seconds", "", DurationBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %g, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestBuffer(t *testing.T) {
	b := NewBuffer()
	ev := Event{Seq: 0, Type: Dispatch, Worker: 2}
	b.EmitPtr(&ev)
	ev = Event{Seq: 1, Type: ChunkDone, Worker: 2}
	b.EmitPtr(&ev)
	evs := b.Events()
	if len(evs) != 2 {
		t.Fatalf("buffer holds %d events, want 2", len(evs))
	}
	if evs[0].Type != Dispatch || evs[1].Type != ChunkDone {
		t.Errorf("buffer order wrong or the pointee was kept: %+v", evs)
	}
}

func TestRingWrapAndAfter(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.EmitPtr(&Event{Seq: int64(i), Worker: -1})
	}
	snap := r.After(-1)
	if len(snap) != 3 || snap[0].Seq != 2 || snap[2].Seq != 4 {
		t.Fatalf("ring snapshot = %+v, want seqs 2..4", snap)
	}
	after := r.After(3)
	if len(after) != 1 || after[0].Seq != 4 {
		t.Fatalf("ring After(3) = %+v, want seq 4 only", after)
	}
	if got := r.After(99); got != nil {
		t.Fatalf("ring After(99) = %+v, want nil", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.EmitPtr(&Event{Seq: 0, T: 1.5, Type: Dispatch, Worker: 3, Chunk: 7, Size: 100})
	s.EmitPtr(&Event{Seq: 1, T: 2.5, Type: RunFinished, Worker: -1, Makespan: 2.5})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if ev.Type != Dispatch || ev.Worker != 3 || ev.Chunk != 7 {
		t.Errorf("round-trip mismatch: %+v", ev)
	}
	// The batch writer produces identical bytes for the same events.
	var buf2 bytes.Buffer
	if err := WriteJSONL(&buf2, []Event{
		{Seq: 0, T: 1.5, Type: Dispatch, Worker: 3, Chunk: 7, Size: 100},
		{Seq: 1, T: 2.5, Type: RunFinished, Worker: -1, Makespan: 2.5},
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("streaming and batch JSONL output differ")
	}
}

// TestEventFieldsListEveryField holds Event.Fields to the struct: one
// entry per field, each pointing at that field, in declaration order.
func TestEventFieldsListEveryField(t *testing.T) {
	var ev Event
	fields := ev.Fields()
	v := reflect.ValueOf(&ev).Elem()
	if v.NumField() != len(fields) {
		t.Fatalf("Event has %d fields, Fields lists %d — append the new field to both", v.NumField(), len(fields))
	}
	for i, f := range fields {
		if got, want := reflect.ValueOf(f).Pointer(), v.Field(i).Addr().Pointer(); got != want {
			t.Errorf("Fields()[%d] does not point at field %d (%s)", i, i, v.Type().Field(i).Name)
		}
		switch f.(type) {
		case *int64, *int, *float64, *string, *EventType, *bool:
		default:
			t.Errorf("Fields()[%d] (%s) is a %T; teach the codecs that kind", i, v.Type().Field(i).Name, f)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = ev.Fields() }); allocs != 0 {
		t.Errorf("Fields allocates %.0f times", allocs)
	}
}

// Count returns the total number of observations (the tests' reading
// of a histogram; /metrics prints it as the _count series).
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += atomic.LoadInt64(&h.counts[i])
	}
	return n
}
