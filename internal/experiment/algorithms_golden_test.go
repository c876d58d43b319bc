package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/obs"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

// scheduleConditions are the engine settings every algorithm is pinned
// under: fault-free, two workers crashing mid-run, periodic
// recalibration (the only path that reaches a Recalibrator), faults
// aimed at the two measurement paths, and the two crashes again with
// peer redistribution (on a tree topology and on the star) and with
// output returns. A condition with a landed check also hashes the run's
// whole event stream, and the check asserts that its faults hit what
// they aim at, so the pin cannot silently miss.
var scheduleConditions = []struct {
	name   string
	config func(r *Run)
	landed func(evs []obs.Event, tr *trace.Trace) error
}{
	{"plain", func(*Run) {}, nil},
	{"crash", twoCrashes, nil},
	{"recal", func(r *Run) {
		r.Engine.RecalibrateInterval = 500
		r.Engine.Retry = &engine.RetryPolicy{}
	}, nil},
	// Worker 1 crashes while its no-op job and its probe chunk's transfer
	// are both outstanding (its empty transfer ends at 21.37 s, the no-op
	// takes 0.7 s); worker 5's probe chunk computes through a 200 s stall.
	{"probecrash", func(r *Run) {
		r.Grid.Faults = &grid.FaultPlan{Faults: []grid.WorkerFault{
			{Worker: 1, Kind: grid.FaultCrash, At: 21.7},
			{Worker: 5, Kind: grid.FaultStall, At: 70, Duration: 200},
		}}
		r.Engine.Retry = &engine.RetryPolicy{}
	}, probeFaultsLanded},
	// The first recalibrations measure worker 0 from about 505 s and
	// worker 1 from about 1000 s; depending on the algorithm, one of the
	// two crashes lands inside a measurement or before its transfer.
	{"recalcrash", func(r *Run) {
		r.Engine.RecalibrateInterval = 500
		r.Grid.Faults = &grid.FaultPlan{Faults: []grid.WorkerFault{
			{Worker: 0, Kind: grid.FaultCrash, At: 515},
			{Worker: 1, Kind: grid.FaultCrash, At: 1500},
		}}
		r.Engine.Retry = &engine.RetryPolicy{}
	}, recalFaultLanded},
	// Transfers on the tree are fluid flows behind a latency phase; a
	// crash cuts either phase, and peer fetches share the links with the
	// master's sends.
	{"tree", func(r *Run) {
		twoCrashes(r)
		r.Platform = treePlatform
		r.Engine.Retry.Redistribute = true
	}, peerMoveLanded},
	{"starpeer", func(r *Run) {
		twoCrashes(r)
		r.Engine.Retry.Redistribute = true
	}, peerMoveLanded},
	{"output", func(r *Run) {
		twoCrashes(r)
		r.App.OutputBytesPerUnit = r.App.BytesPerUnit / 2
	}, outputLanded},
}

// treePlatform is the tree condition's platform: the pinned Mixed(4, 4)
// behind a two-level link graph. Runs share it read-only.
var treePlatform = workload.WithTreeTopology(workload.Mixed(4, 4))

// twoCrashes is the crash condition: worker 1 crashes at 1 500 s and
// worker 6 at 4 000 s, under the default retry policy.
func twoCrashes(r *Run) {
	r.Grid.Faults = &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 1, Kind: grid.FaultCrash, At: 1500},
		{Worker: 6, Kind: grid.FaultCrash, At: 4000},
	}}
	r.Engine.Retry = &engine.RetryPolicy{}
}

// peerMoveLanded checks tree and starpeer: worker 1 was lost, and some
// failed chunk moved to a survivor over the peer path.
func peerMoveLanded(evs []obs.Event, _ *trace.Trace) error {
	lost, moved := false, false
	for _, ev := range evs {
		lost = lost || ev.Type == obs.WorkerLost && ev.Worker == 1
		moved = moved || ev.Type == obs.ChunkRedistributed
	}
	if !lost || !moved {
		return fmt.Errorf("worker 1 lost %v, a chunk redistributed %v", lost, moved)
	}
	return nil
}

// outputLanded checks output: worker 1 was lost, and chunks returned
// their output over the downlink. Whether a crash cuts a return depends
// on the algorithm's timing, so TestAlgorithmSchedulesMatchGolden checks
// separately that some output run cut one (see returnCut).
func outputLanded(evs []obs.Event, tr *trace.Trace) error {
	lost := false
	for _, ev := range evs {
		lost = lost || ev.Type == obs.WorkerLost && ev.Worker == 1
	}
	returned := false
	for _, r := range tr.Records() {
		returned = returned || !r.Failed && !r.Probe && r.OutputEnd > r.CompEnd
	}
	if !lost || !returned {
		return fmt.Errorf("worker 1 lost %v, output returned %v", lost, returned)
	}
	return nil
}

// returnCut reports whether a crash cut some chunk attempt after its
// computation ended, while it returned output.
func returnCut(tr *trace.Trace) bool {
	for _, r := range tr.Records() {
		if r.Failed && r.CompEnd > 0 {
			return true
		}
	}
	return false
}

// probeFaultsLanded checks probecrash: in a run that probes, crashed
// worker 1 is lost before planning, and stalled worker 5's probe chunk
// computes for at least the stall.
func probeFaultsLanded(evs []obs.Event, _ *trace.Trace) error {
	if len(evs) == 0 || evs[0].Type != obs.ProbeStart {
		return nil // a blind algorithm: no probing round to aim at
	}
	lost, stalled := false, false
	for _, ev := range evs {
		switch {
		case ev.Type == obs.PlanDone:
			if !lost || !stalled {
				return fmt.Errorf("planned with worker 1 lost %v and worker 5's stalled probe seen %v", lost, stalled)
			}
			return nil
		case ev.Type == obs.WorkerLost && ev.Worker == 1:
			lost = true
		case ev.Type == obs.ProbeResult && ev.Worker == 5:
			stalled = ev.ComputeDur >= 200
		}
	}
	return fmt.Errorf("never planned")
}

// recalFaultLanded checks recalcrash: some recalibration of a crashed
// worker started (its empty transfer took the uplink after planning) and
// never delivered its measurement.
func recalFaultLanded(evs []obs.Event, _ *trace.Trace) error {
	planned := false
	started, delivered := map[int]int{}, map[int]int{}
	for _, ev := range evs {
		switch {
		case ev.Type == obs.PlanDone:
			planned = true
		case planned && ev.Type == obs.UplinkBusy && ev.Probe:
			started[ev.Worker]++
		case ev.Type == obs.Recalibrate:
			delivered[ev.Worker]++
		}
	}
	for _, w := range []int{0, 1} {
		if started[w] > delivered[w] {
			return nil
		}
	}
	return fmt.Errorf("no recalibration of worker 0 or 1 was cut short (started %v, delivered %v)", started, delivered)
}

// eventsHash digests an event stream bit for bit: every field of every
// event in obs.Event.Fields order, floats by their bit pattern, strings
// length-prefixed.
func eventsHash(evs []obs.Event) []byte {
	var buf []byte
	for i := range evs {
		for _, f := range evs[i].Fields() {
			switch p := f.(type) {
			case *int64:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(*p))
			case *int:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(*p))
			case *float64:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(*p))
			case *bool:
				if *p {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			case *string:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(len(*p)))
				buf = append(buf, *p...)
			case *obs.EventType:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(len(*p)))
				buf = append(buf, *p...)
			default:
				panic(fmt.Sprintf("eventsHash: unhandled field type %T", f))
			}
		}
	}
	return buf
}

// scheduleHash digests a run bit for bit: every field of every trace
// record, floats by their bit pattern, then the run's error text, then
// extra (the event stream's digest input, or nothing).
func scheduleHash(tr *trace.Trace, runErr error, extra []byte) string {
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	if tr != nil {
		for _, r := range tr.Records() {
			u(uint64(r.Chunk))
			u(uint64(r.Worker))
			f(r.Offset)
			f(r.Size)
			b(r.Probe)
			f(r.SendStart)
			f(r.SendEnd)
			f(r.CompStart)
			f(r.CompEnd)
			f(r.OutputEnd)
			u(uint64(r.Attempt))
			b(r.Failed)
		}
	}
	if runErr != nil {
		buf = append(buf, runErr.Error()...)
	}
	buf = append(buf, extra...)
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}

// TestAlgorithmSchedulesMatchGolden pins the full-precision schedule of
// every registered algorithm (and the oracle RUMR) on a heterogeneous
// platform, under each of scheduleConditions, for seeds 1–3. The event
// manifests pin only Figure 2's paper set and `extended` prints whole
// seconds; this is the check that a planner refactor moved nothing.
func TestAlgorithmSchedulesMatchGolden(t *testing.T) {
	manifest, err := os.ReadFile(filepath.Join("testdata", "algorithms_golden.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(manifest)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed manifest line %q", line)
		}
		want[fields[1]] = fields[0]
	}

	names := append(dls.Names(), "rumr-oracle")
	newAlg := func(name string) dls.Algorithm {
		if name == "rumr-oracle" {
			return dls.NewOracleRUMR(0.10)
		}
		a, err := dls.New(name)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	const seeds = 3
	platform := workload.Mixed(4, 4)
	perAlg := len(scheduleConditions) * seeds
	keys := make([]string, len(names)*perAlg)
	got := make([]string, len(keys))
	events := make([]*obs.Buffer, len(keys))
	cuts := make([]bool, len(keys))
	err = RunAll(len(keys), 0, func(i int, r *Run) {
		name, cond, seed := names[i/perAlg], scheduleConditions[i%perAlg/seeds], i%seeds+1
		keys[i] = fmt.Sprintf("%s/%s/%d", name, cond.name, seed)
		*r = Run{Platform: platform, App: workload.Synthetic(0.10), Algorithm: newAlg(name),
			Grid: grid.Config{Seed: uint64(seed)}, Engine: engine.Config{ProbeLoad: 200}}
		cond.config(r)
		if cond.landed != nil {
			events[i] = obs.NewBuffer()
			r.Engine.Events = events[i]
		}
	}, func(i int, _ *Run, tr *trace.Trace, err error) error {
		var extra []byte
		if events[i] != nil {
			evs := events[i].Events()
			if lerr := scheduleConditions[i%perAlg/seeds].landed(evs, tr); lerr != nil {
				return fmt.Errorf("%s: fault missed its target: %v", keys[i], lerr)
			}
			extra = eventsHash(evs)
			cuts[i] = scheduleConditions[i%perAlg/seeds].name == "output" && returnCut(tr)
		}
		got[i] = scheduleHash(tr, err, extra)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(cuts, true) {
		t.Error("no output run had a return cut by a crash")
	}

	var all strings.Builder
	for i, key := range keys {
		fmt.Fprintf(&all, "%s %s\n", got[i], key)
		switch {
		case want[key] == "":
			t.Errorf("%s: not in the manifest", key)
		case want[key] != got[i]:
			t.Errorf("%s drifted from the golden manifest (got %s, want %s)", key, got[i], want[key])
		}
	}
	if len(want) != len(keys) {
		t.Errorf("manifest has %d lines, the test runs %d", len(want), len(keys))
	}
	if t.Failed() {
		t.Logf("computed manifest:\n%s", all.String())
	}
}
