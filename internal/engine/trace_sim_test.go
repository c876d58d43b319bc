package engine_test

import (
	"bytes"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
)

// serialize renders an event stream exactly as the golden manifests do,
// so "byte-identical" here means what the determinism gate means.
func serialize(t *testing.T, evs []obs.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracingPreservesSimDeterminism is the golden guarantee: attaching
// a trace collector to a simulated run must not perturb the event
// stream by a single byte. Tracing reads the backend clock; it must
// never advance it or reorder events.
func TestTracingPreservesSimDeterminism(t *testing.T) {
	plain := runWithSink(t, dls.NewRUMR(), engine.Config{})

	col := otrace.New(0)
	col.SetExporter(otrace.NopExporter{})
	traced := runWithSink(t, dls.NewRUMR(), engine.Config{
		Trace:   col,
		TraceID: col.NewTraceID(),
	})

	a, b := serialize(t, plain), serialize(t, traced)
	if !bytes.Equal(a, b) {
		t.Fatalf("event stream diverged with tracing enabled:\nplain:  %d bytes\ntraced: %d bytes", len(a), len(b))
	}
	if col.Recorded() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for _, sp := range col.Snapshot() {
		if !sp.BackendClock {
			t.Fatalf("engine span %q not flagged BackendClock", sp.Name)
		}
		if sp.End < sp.Start {
			t.Fatalf("span %q ends before it starts: [%d, %d]", sp.Name, sp.Start, sp.End)
		}
	}
}

// A zero TraceID with a live collector must behave exactly like no
// collector: the disabled path records nothing.
func TestZeroTraceIDRecordsNothing(t *testing.T) {
	col := otrace.New(0)
	runWithSink(t, dls.NewRUMR(), engine.Config{Trace: col})
	if n := col.Recorded(); n != 0 {
		t.Fatalf("zero TraceID recorded %d spans", n)
	}
}
