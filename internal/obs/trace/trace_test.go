package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if got := c.NewTraceID(); got != 0 {
		t.Fatalf("nil NewTraceID = %d, want 0", got)
	}
	sp := c.Begin(1, 0, "x")
	if sp.ID() != 0 {
		t.Fatalf("nil Begin minted span id %d", sp.ID())
	}
	sp.End(nil) // must not panic
	c.RecordSpan(1, 2, 3, "x", 0, 1, false, "")
	c.RecordSince(1, 0, "x", 0, nil)
	if c.Snapshot() != nil || c.NameStats() != nil || c.Recorded() != 0 {
		t.Fatal("nil collector reported data")
	}
}

func TestZeroTraceIDIsInert(t *testing.T) {
	c := New(16)
	sp := c.Begin(0, 0, "x")
	sp.End(nil)
	c.RecordSpan(0, 1, 0, "x", 0, 1, false, "")
	if got := c.Recorded(); got != 0 {
		t.Fatalf("zero trace id recorded %d spans", got)
	}
}

func TestBeginEndRecordsTree(t *testing.T) {
	c := New(16)
	tid := c.NewTraceID()
	root := c.Begin(tid, 0, "root")
	child := c.Begin(tid, root.ID(), "child")
	child.End(nil)
	root.End(nil)
	spans := c.TraceSpans(tid)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("recording order wrong: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent %d != root id %d", spans[0].Parent, spans[1].ID)
	}
	if spans[0].Start < spans[1].Start || spans[0].End > c.Clock() {
		t.Fatal("child span not nested in time")
	}
	other := c.NewTraceID()
	if got := c.TraceSpans(other); len(got) != 0 {
		t.Fatalf("unrelated trace returned %d spans", len(got))
	}
}

func TestRingWrapKeepsRecentInOrder(t *testing.T) {
	c := New(4)
	tid := c.NewTraceID()
	for i := 0; i < 10; i++ {
		c.RecordSpan(tid, SpanID(100+i), 0, "s", int64(i), int64(i+1), false, "")
	}
	spans := c.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d, want 4", len(spans))
	}
	for i, s := range spans {
		if want := uint64(100 + 6 + i); s.ID != want {
			t.Fatalf("span %d id = %d, want %d (oldest-first order after wrap)", i, s.ID, want)
		}
	}
	if c.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", c.Recorded())
	}
	if c.Retained() != 4 {
		t.Fatalf("Retained = %d, want 4", c.Retained())
	}
}

func TestNameStatsSurviveRingEviction(t *testing.T) {
	c := New(4) // tiny ring: stats must not depend on retention
	tid := c.NewTraceID()
	for i := 0; i < 100; i++ {
		c.RecordSpan(tid, 0, 0, "stage.a", 0, 1_000_000, false, "") // 1ms each
	}
	c.RecordSpan(tid, 0, 0, "stage.b", 0, 5_000_000, false, "")
	stats := c.NameStats()
	if len(stats) != 2 {
		t.Fatalf("got %d stats, want 2: %+v", len(stats), stats)
	}
	a, b := stats[0], stats[1]
	if a.Stage != "stage.a" || b.Stage != "stage.b" {
		t.Fatalf("stage order wrong: %q, %q", a.Stage, b.Stage)
	}
	if a.Count != 100 || a.Sampled != 100 {
		t.Fatalf("stage.a count=%d sampled=%d, want 100/100 despite ring cap 4", a.Count, a.Sampled)
	}
	if a.P50Ms != 1 || a.P99Ms != 1 || a.MaxMs != 1 {
		t.Fatalf("stage.a percentiles: %+v", a)
	}
	if b.P50Ms != 5 {
		t.Fatalf("stage.b p50 = %v, want 5", b.P50Ms)
	}
}

func TestWriteTreeSelfTime(t *testing.T) {
	c := New(16)
	tid := c.NewTraceID()
	c.RecordSpan(tid, 1, 0, "root", 0, 10_000_000, false, "")
	c.RecordSpan(tid, 2, 1, "early", 1_000_000, 3_000_000, false, "")
	c.RecordSpan(tid, 3, 1, "late", 4_000_000, 9_000_000, false, "boom")
	c.RecordSpan(tid, 4, 99, "orphan", 0, 1_000_000, true, "")
	var sb strings.Builder
	WriteTree(&sb, c.TraceSpans(tid))
	out := sb.String()
	for _, want := range []string{
		"root", "├─ early", "└─ late", `err="boom"`,
		"self 3000µs", // 10ms − 2ms − 5ms
		"orphan ~",    // orphan renders as a backend-clock root
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	c := New(16)
	var sb strings.Builder
	e := NewChromeExporter(&sb)
	c.SetExporter(e)
	tid := c.NewTraceID()
	sp := c.Begin(tid, 0, `na"me`)
	sp.End(nil)
	c.RecordSpan(tid, 0, SpanID(sp.ID()), "chunk.compute", 5, 9, true, `err "quoted"`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("ChromeExporter output not valid JSON: %v\n%s", err, sb.String())
	}
	if len(events) != 2 {
		t.Fatalf("exporter streamed %d events, want 2", len(events))
	}
	if events[0]["name"] != `na"me` || events[0]["cat"] != "wall" {
		t.Fatalf("wall-clock span exported name=%v cat=%v", events[0]["name"], events[0]["cat"])
	}
	if events[1]["cat"] != "backend" {
		t.Fatalf("backend-clock span exported cat=%v", events[1]["cat"])
	}
	if args, _ := events[1]["args"].(map[string]any); args["err"] != `err "quoted"` {
		t.Fatalf("span error exported as %v", events[1]["args"])
	}
}

func TestEmptyChromeExporterCloses(t *testing.T) {
	var sb strings.Builder
	e := NewChromeExporter(&sb)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("empty export not valid JSON: %v\n%s", err, sb.String())
	}
}

func TestRecordWarmPathDoesNotAllocate(t *testing.T) {
	c := New(1024)
	tid := c.NewTraceID()
	// Warm the intern table and the stats reservoir.
	c.RecordSpan(tid, 0, 0, "warm", 0, 1, false, "")
	allocs := testing.AllocsPerRun(200, func() {
		sp := c.Begin(tid, 0, "warm")
		sp.End(nil)
	})
	if allocs != 0 {
		t.Fatalf("warm Begin/End allocated %.1f times per span", allocs)
	}
}

func TestProcessUniqueIDs(t *testing.T) {
	a := New(4)
	time.Sleep(time.Microsecond) // distinct start nanos → distinct id bases
	b := New(4)
	if a.NewTraceID() == b.NewTraceID() {
		t.Fatal("two collectors minted the same trace id")
	}
	if a.NextSpanID() == b.NextSpanID() {
		t.Fatal("two collectors minted the same span id")
	}
}
