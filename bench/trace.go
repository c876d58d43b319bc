package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"apstdv/internal/stats"
)

// The traced run records a span around every call the engine makes into
// a backend or an algorithm, and around every callback a backend makes
// back into the engine. All of it happens in this file and decorate.go:
// nothing inside the program records anything.

// spanName enumerates the call sites; spanInfo gives each its printed
// name and the layer (module) whose code runs inside it.
type spanName uint8

const (
	spExecute spanName = iota // engine.Execute, the root of a single-job run
	spWorld                   // one MultiWorld batch, the root of a multi-job run
	spEngineDone
	spEngineTimer
	spGridNew
	spGridReset
	spGridRun
	spGridTransfer
	spGridExecute
	spGridReturn
	spGridPeer
	spGridAfterFunc
	spGridCancelTimer
	spGridStop
	spDLSPlan
	spDLSNext
	spDLSDispatched
	spDLSObserve
	spDLSRecalibrate
	spDLSWorkerLost
	spDLSRedistributed
	spDLSDrainSwitch
	spReport
	nSpanNames
)

const (
	layerEngine = "engine"
	layerGrid   = "grid"
	layerDLS    = "dls"
	layerTrace  = "trace"
)

var spanInfo = [nSpanNames]struct{ name, layer string }{
	spExecute:          {"engine.Execute", layerEngine},
	spWorld:            {"engine.world", layerEngine},
	spEngineDone:       {"engine.done", layerEngine},
	spEngineTimer:      {"engine.timer", layerEngine},
	spGridNew:          {"grid.New", layerGrid},
	spGridReset:        {"grid.Reset", layerGrid},
	spGridRun:          {"grid.Run", layerGrid},
	spGridTransfer:     {"grid.Transfer", layerGrid},
	spGridExecute:      {"grid.Execute", layerGrid},
	spGridReturn:       {"grid.ReturnOutput", layerGrid},
	spGridPeer:         {"grid.PeerTransfer", layerGrid},
	spGridAfterFunc:    {"grid.AfterFunc", layerGrid},
	spGridCancelTimer:  {"grid.CancelTimer", layerGrid},
	spGridStop:         {"grid.Stop", layerGrid},
	spDLSPlan:          {"dls.Plan", layerDLS},
	spDLSNext:          {"dls.Next", layerDLS},
	spDLSDispatched:    {"dls.Dispatched", layerDLS},
	spDLSObserve:       {"dls.Observe", layerDLS},
	spDLSRecalibrate:   {"dls.Recalibrate", layerDLS},
	spDLSWorkerLost:    {"dls.WorkerLost", layerDLS},
	spDLSRedistributed: {"dls.ChunkRedistributed", layerDLS},
	spDLSDrainSwitch:   {"dls.DrainSwitchDecisions", layerDLS},
	spReport:           {"trace.report", layerTrace},
}

// span is one recorded call: its site, the span that caused it (index
// into the same slice, -1 for a root), the run it belongs to and its
// start and end in nanoseconds since the tracer was made.
type span struct {
	Name       spanName
	Parent     int32
	Run        int32
	Start, End int64
}

type openSpan struct {
	name     spanName
	idx      int32 // position in spans, -1 when past the retention cap
	start    int64
	children int64 // summed duration of direct children
}

// maxKeptSpans bounds the spans retained for bench/out; self-time totals
// are accumulated for every span whether or not it is retained.
const maxKeptSpans = 200_000

// tracer keeps one open-span stack. Every workload the bench traces
// executes strictly sequentially (the multi-job world hands execution
// from goroutine to goroutine through channels), so one stack serves a
// whole pass and needs no lock.
type tracer struct {
	t0    time.Time
	run   int32
	stack []openSpan
	spans []span
	// Per call site: summed self time (duration minus direct children),
	// summed duration, call count, and how many direct children its
	// spans had.
	self, total, count, kids [nSpanNames]int64
}

func newTracer() *tracer {
	// Retention never reallocates: the cost of a span is the same for the
	// first as for the last kept one.
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxKeptSpans), stack: make([]openSpan, 0, 64)}
}

// begin and end read the clock as the last and the first thing they do,
// so that their own bookkeeping falls outside the span they record.
func (t *tracer) begin(n spanName) {
	t.push(n)
	t.stamp(int64(time.Since(t.t0)))
}

func (t *tracer) end() { t.endAt(int64(time.Since(t.t0))) }

// beginAt and endAt are begin and end on a given clock reading.
func (t *tracer) beginAt(n spanName, now int64) {
	t.push(n)
	t.stamp(now)
}

func (t *tracer) push(n spanName) {
	idx := int32(-1)
	if len(t.spans) < maxKeptSpans {
		parent := int32(-1)
		if k := len(t.stack); k > 0 {
			parent = t.stack[k-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: n, Parent: parent, Run: t.run})
	}
	t.stack = append(t.stack, openSpan{name: n, idx: idx})
}

// stamp sets the start of the span just pushed.
func (t *tracer) stamp(now int64) {
	o := &t.stack[len(t.stack)-1]
	o.start = now
	if o.idx >= 0 {
		t.spans[o.idx].Start = now
	}
}

func (t *tracer) endAt(now int64) {
	k := len(t.stack) - 1
	o := t.stack[k]
	t.stack = t.stack[:k]
	dur := now - o.start
	t.self[o.name] += dur - o.children
	t.total[o.name] += dur
	t.count[o.name]++
	if k > 0 {
		t.stack[k-1].children += dur
		t.kids[t.stack[k-1].name]++
	}
	if o.idx >= 0 {
		t.spans[o.idx].End = now
	}
}

// spanCost is what recording one span adds to the measured self times:
// inside is the part that lands in the span's own self time (the gap
// between its two clock reads), outside the part that lands in its
// parent's (the work of begin before, and of end after, those reads).
// On a path of 600 ns per chunk with ten spans per chunk these are as
// large as the program's own time, so every self time is reported net of
// them.
type spanCost struct{ inside, outside float64 }

// measureSpanCost times empty spans under one parent, on a tracer of
// the same retention state the traced passes will mostly see.
func measureSpanCost() spanCost {
	const n = 20000
	var in, out []float64
	for rep := 0; rep < 5; rep++ {
		t := newTracer()
		t.begin(spExecute)
		for i := 0; i < n; i++ {
			t.begin(spDLSNext)
			t.end()
		}
		t.end()
		in = append(in, float64(t.self[spDLSNext])/n)
		out = append(out, float64(t.self[spExecute])/n)
	}
	return spanCost{inside: stats.Median(in), outside: stats.Median(out)}
}

// netSelf is a call site's summed self time net of the tracer's own
// cost, floored at zero.
func (t *tracer) netSelf(n spanName, c spanCost) float64 {
	v := float64(t.self[n]) - float64(t.count[n])*c.inside - float64(t.kids[n])*c.outside
	if v < 0 {
		return 0
	}
	return v
}

// layerSelf sums net self time per layer.
func (t *tracer) layerSelf(c spanCost) map[string]float64 {
	out := map[string]float64{}
	for n := spanName(0); n < nSpanNames; n++ {
		out[spanInfo[n].layer] += t.netSelf(n, c)
	}
	return out
}

// selfOf sums net self time and calls over call sites.
func (t *tracer) selfOf(c spanCost, names ...spanName) (ns float64, calls int64) {
	for _, n := range names {
		ns += t.netSelf(n, c)
		calls += t.count[n]
	}
	return ns, calls
}

type spanJSON struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Run     int32  `json:"run"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type siteJSON struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Calls   int64  `json:"calls"`
	SelfNs  int64  `json:"self_ns"`
	TotalNs int64  `json:"total_ns"`
	// NetSelfNs is SelfNs minus the tracer's own measured cost.
	NetSelfNs int64 `json:"net_self_ns"`
}

// traceFile is what one traced run leaves in bench/out/<workload>.json.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     uint64              `json:"seed"`
	Context  runContext          `json:"context"`
	Metrics  map[string]measured `json:"metrics"`
	// Sites aggregates every span of the traced passes by call site.
	Sites []siteJSON `json:"sites,omitempty"`
	// Truncated is true when the traced passes made more spans than
	// Spans retains (the first maxKeptSpans are kept).
	Truncated bool `json:"truncated"`
	// Spans are the engine/grid/dls spans of the sim path.
	Spans []spanJSON `json:"spans,omitempty"`
	// ClientSpans are the client-side RPC spans of a serving workload.
	ClientSpans []clientSpanJSON `json:"client_spans,omitempty"`
	// Stages is the daemon's own collector, as TraceStats returns it.
	Stages any `json:"daemon_stages,omitempty"`
}

func (t *tracer) fill(f *traceFile, c spanCost) {
	var made int64
	for n := spanName(0); n < nSpanNames; n++ {
		made += t.count[n]
		if t.count[n] == 0 {
			continue
		}
		f.Sites = append(f.Sites, siteJSON{
			Name: spanInfo[n].name, Layer: spanInfo[n].layer,
			Calls: t.count[n], SelfNs: t.self[n], TotalNs: t.total[n], NetSelfNs: int64(t.netSelf(n, c)),
		})
	}
	f.Truncated = made > int64(len(t.spans))
	f.Spans = make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		f.Spans[i] = spanJSON{
			ID: int32(i), Parent: s.Parent, Run: s.Run,
			Name: spanInfo[s.Name].name, Layer: spanInfo[s.Name].layer,
			StartNs: s.Start, EndNs: s.End,
		}
	}
}

// writeTraceFile stores f under dir, creating it.
func writeTraceFile(dir string, f *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, f.Workload+".json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}
