package trace

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	tr := New("umr", "testbed")
	tr.Add(Record{Chunk: 1, Worker: 0, Offset: -1, Size: 10, Probe: true,
		SendStart: 0, SendEnd: 1, CompStart: 1, CompEnd: 2, OutputEnd: 2})
	tr.Add(Record{Chunk: 2, Worker: 0, Offset: 0, Size: 100,
		SendStart: 1, SendEnd: 3, CompStart: 3, CompEnd: 13, OutputEnd: 13})
	tr.Add(Record{Chunk: 3, Worker: 1, Offset: 100, Size: 200,
		SendStart: 3, SendEnd: 7, CompStart: 7, CompEnd: 27, OutputEnd: 30})
	return tr
}

func TestMakespan(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Makespan(); got != 30 {
		t.Errorf("Makespan = %g, want 30 (output arrival)", got)
	}
	if New("x", "y").Makespan() != 0 {
		t.Error("empty trace makespan should be 0")
	}
}

func TestRecordDurations(t *testing.T) {
	r := Record{SendStart: 1, SendEnd: 3, CompStart: 4, CompEnd: 9}
	if r.TransferTime() != 2 || r.ComputeTime() != 5 {
		t.Errorf("durations %g/%g, want 2/5", r.TransferTime(), r.ComputeTime())
	}
}

func TestBuildReportCounts(t *testing.T) {
	rep := sampleTrace().BuildReport(2)
	if rep.Chunks != 2 || rep.Probes != 1 {
		t.Errorf("chunks/probes = %d/%d, want 2/1", rep.Chunks, rep.Probes)
	}
	if rep.TotalLoad != 300 {
		t.Errorf("TotalLoad = %g, want 300", rep.TotalLoad)
	}
	if rep.CommTime != 6 { // 2 + 4, probe excluded
		t.Errorf("CommTime = %g, want 6", rep.CommTime)
	}
	if rep.CompTime != 30 { // 10 + 20
		t.Errorf("CompTime = %g, want 30", rep.CompTime)
	}
}

func TestBuildReportWorkerMetrics(t *testing.T) {
	rep := sampleTrace().BuildReport(2)
	if math.Abs(rep.WorkerUtil[0]-10.0/30) > 1e-12 {
		t.Errorf("worker 0 util = %g, want 1/3", rep.WorkerUtil[0])
	}
	if rep.WorkerLoad[0] != 100 || rep.WorkerLoad[1] != 200 {
		t.Errorf("worker loads = %v", rep.WorkerLoad)
	}
	if rep.LastChunkSizes[0] != 100 || rep.LastChunkSizes[1] != 200 {
		t.Errorf("last chunk sizes = %v", rep.LastChunkSizes)
	}
	// Front idle: worker 0 first computes at 3, worker 1 at 7 → mean 5.
	if math.Abs(rep.IdleFront-5) > 1e-12 {
		t.Errorf("IdleFront = %g, want 5", rep.IdleFront)
	}
}

func TestOverlapFullyPipelined(t *testing.T) {
	tr := New("a", "b")
	// Communication [0,10], computation [0,10]: total overlap.
	tr.Add(Record{Worker: 0, Size: 1, SendStart: 0, SendEnd: 10, CompStart: 0, CompEnd: 10})
	rep := tr.BuildReport(1)
	if math.Abs(rep.Overlap-1) > 1e-12 {
		t.Errorf("Overlap = %g, want 1", rep.Overlap)
	}
}

func TestOverlapNone(t *testing.T) {
	tr := New("a", "b")
	tr.Add(Record{Worker: 0, Size: 1, SendStart: 0, SendEnd: 10, CompStart: 10, CompEnd: 20})
	rep := tr.BuildReport(1)
	if rep.Overlap != 0 {
		t.Errorf("Overlap = %g, want 0", rep.Overlap)
	}
}

func TestOverlapPartial(t *testing.T) {
	tr := New("a", "b")
	// Comm [0,10] and [20,30]; comp [5,25]: covered 5 + 5 of 20.
	tr.Add(Record{Worker: 0, Size: 1, SendStart: 0, SendEnd: 10, CompStart: 5, CompEnd: 25})
	tr.Add(Record{Worker: 1, Size: 1, SendStart: 20, SendEnd: 30, CompStart: 35, CompEnd: 36})
	rep := tr.BuildReport(2)
	if math.Abs(rep.Overlap-0.5) > 1e-12 {
		t.Errorf("Overlap = %g, want 0.5", rep.Overlap)
	}
}

func TestUnionIntervals(t *testing.T) {
	got := unionIntervals([]interval{{5, 8}, {0, 3}, {2, 4}, {8, 9}})
	want := []interval{{0, 4}, {5, 9}}
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("union[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if unionIntervals(nil) != nil {
		t.Error("union of nothing should be nil")
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 records
		t.Fatalf("%d CSV rows, want 4", len(rows))
	}
	if rows[0][0] != "chunk" || rows[0][4] != "probe" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][4] != "true" || rows[2][4] != "false" {
		t.Error("probe flags wrong in CSV")
	}
	if rows[3][3] != "200" {
		t.Errorf("size column = %q, want 200", rows[3][3])
	}
}

func TestReportString(t *testing.T) {
	rep := sampleTrace().BuildReport(2)
	s := rep.String()
	for _, want := range []string{"umr", "testbed", "2 chunks", "1 probes"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestBuildReportIgnoresOutOfRangeWorkers(t *testing.T) {
	tr := New("a", "b")
	tr.Add(Record{Worker: 7, Size: 10, SendStart: 0, SendEnd: 1, CompStart: 1, CompEnd: 2})
	rep := tr.BuildReport(2) // fewer workers than the record claims
	if rep.Chunks != 1 {
		t.Errorf("chunk not counted")
	}
	// Must not panic, and per-worker arrays stay in range.
	if len(rep.WorkerUtil) != 2 {
		t.Errorf("worker arrays resized to %d", len(rep.WorkerUtil))
	}
}

func TestProbeEndAndAppMakespan(t *testing.T) {
	rep := sampleTrace().BuildReport(2)
	if rep.ProbeEnd != 2 {
		t.Errorf("ProbeEnd = %g, want 2", rep.ProbeEnd)
	}
	if rep.AppMakespan != 28 {
		t.Errorf("AppMakespan = %g, want 30-2", rep.AppMakespan)
	}
	noProbe := New("a", "b")
	noProbe.Add(Record{Worker: 0, Size: 1, SendStart: 0, SendEnd: 1, CompStart: 1, CompEnd: 5})
	r2 := noProbe.BuildReport(1)
	if r2.ProbeEnd != 0 || r2.AppMakespan != 5 {
		t.Errorf("non-probing report: probeEnd=%g appMakespan=%g", r2.ProbeEnd, r2.AppMakespan)
	}
}

// A clone survives the original being reset and refilled — the way an
// arena-borrowed trace is overwritten by the next run — and holds no
// spare capacity.
func TestCloneIsIndependent(t *testing.T) {
	tr := sampleTrace()
	cp := tr.Clone()
	want := append([]Record(nil), tr.Records()...)
	tr.Reset("other", "elsewhere")
	tr.Add(Record{Chunk: 9, Worker: 5, Size: 1})
	if cp.Algorithm != "umr" || cp.Platform != "testbed" {
		t.Errorf("clone relabeled to %s/%s", cp.Algorithm, cp.Platform)
	}
	got := cp.Records()
	if len(got) != len(want) || cap(got) != len(want) {
		t.Fatalf("clone has len %d cap %d, want %d exactly", len(got), cap(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d changed under the clone: %+v, want %+v", i, got[i], want[i])
		}
	}
}
