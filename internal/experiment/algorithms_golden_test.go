package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/trace"
	"apstdv/internal/workload"
)

// scheduleConditions are the engine settings every algorithm is pinned
// under: fault-free, two workers crashing mid-run, and periodic
// recalibration (the only path that reaches a Recalibrator).
var scheduleConditions = []struct {
	name   string
	config func(r *Run)
}{
	{"plain", func(*Run) {}},
	{"crash", func(r *Run) {
		r.Grid.Faults = &grid.FaultPlan{Faults: []grid.WorkerFault{
			{Worker: 1, Kind: grid.FaultCrash, At: 1500},
			{Worker: 6, Kind: grid.FaultCrash, At: 4000},
		}}
		r.Engine.Retry = &engine.RetryPolicy{}
	}},
	{"recal", func(r *Run) {
		r.Engine.RecalibrateInterval = 500
		r.Engine.Retry = &engine.RetryPolicy{}
	}},
}

// scheduleHash digests a run bit for bit: every field of every trace
// record, floats by their bit pattern, then the run's error text.
func scheduleHash(tr *trace.Trace, runErr error) string {
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
	err = RunAll(len(keys), 0, func(i int, r *Run) {
		name, cond, seed := names[i/perAlg], scheduleConditions[i%perAlg/seeds], i%seeds+1
		keys[i] = fmt.Sprintf("%s/%s/%d", name, cond.name, seed)
		*r = Run{Platform: platform, App: workload.Synthetic(0.10), Algorithm: newAlg(name),
			Grid: grid.Config{Seed: uint64(seed)}, Engine: engine.Config{ProbeLoad: 200}}
		cond.config(r)
	}, func(i int, _ *Run, tr *trace.Trace, err error) error {
		got[i] = scheduleHash(tr, err)
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
