package experiment

import (
	"math"
	"testing"

	"apstdv/internal/rng"
	"apstdv/internal/stats"
	"apstdv/internal/trace"
)

// reportUplinkIdle is what Spec.Run computed before uplinkAndIdle: the
// whole report, then the two numbers a cell keeps.
func reportUplinkIdle(tr *trace.Trace, workers int) (uplink, idle float64) {
	rep := tr.BuildReport(workers)
	if rep.Makespan > 0 {
		uplink = rep.CommTime / rep.Makespan
		util := stats.RunningStats{}
		for _, u := range rep.WorkerUtil {
			util.Add(u)
		}
		idle = 1 - util.Mean()
	}
	return uplink, idle
}

// sameBits reports whether a and b are one float64 bit for bit, or both
// NaN. A NaN's payload is not a property of the source: when two
// different NaNs meet in an addition, amd64 keeps the first operand's,
// and which operand the compiler puts first depends on whether the sum
// lives in a register or in memory. No printed or hashed output of a run
// carries a NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkUplinkIdle fails unless uplinkAndIdle and the report agree bit
// for bit on tr.
func checkUplinkIdle(t *testing.T, what string, tr *trace.Trace, workers int) {
	t.Helper()
	wantU, wantI := reportUplinkIdle(tr, workers)
	gotU, gotI := uplinkAndIdle(tr, workers, tr.Makespan())
	if !sameBits(gotU, wantU) || !sameBits(gotI, wantI) {
		t.Fatalf("%s (%d records, %d workers): uplinkAndIdle = (%x, %x), report gives (%x, %x)",
			what, tr.Len(), workers, math.Float64bits(gotU), math.Float64bits(gotI), math.Float64bits(wantU), math.Float64bits(wantI))
	}
}

// TestUplinkAndIdleMatchesReportOnPaperRuns runs the 420 runs of the
// paper's experiments as Spec.Run describes them and holds the helper to
// the report on every trace.
func TestUplinkAndIdleMatchesReportOnPaperRuns(t *testing.T) {
	total := 0
	for _, s := range All() {
		s.Runs, s.Parallelism = cliRuns, 1
		nAlg := len(s.Algorithms())
		n := len(s.Gammas) * nAlg * s.Runs
		err := RunAll(n, 1, func(idx int, r *Run) {
			s.describe(idx, nAlg, r)
		}, func(idx int, r *Run, tr *trace.Trace, err error) error {
			if err != nil {
				return err
			}
			checkUplinkIdle(t, s.ID+"/"+r.Algorithm.Name(), tr, len(s.Platform.Workers))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 420 {
		t.Fatalf("checked %d paper runs, want 420", total)
	}
}

// TestUplinkAndIdleMatchesReportOnSeededTraces holds the helper to the
// report on traces no run produces: failed and probe records, workers
// outside the platform, NaN and infinite times, platforms past the
// helper's 64-worker stack buffer, and traces whose makespan is zero.
func TestUplinkAndIdleMatchesReportOnSeededTraces(t *testing.T) {
	src := rng.Stream(1, "experiment/uplink-idle")
	times := func() float64 {
		switch src.Intn(40) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return -src.Uniform(0, 100)
		}
		return src.Uniform(0, 1000)
	}
	for trial := 0; trial < 2000; trial++ {
		workers := []int{0, 1, 3, 16, 64, 65, 130}[trial%7]
		tr := trace.New("seeded", "seeded")
		// One trace in eight keeps every time at or below zero: a zero
		// makespan, where both sides report nothing.
		zero := trial%8 == 0
		for i, n := 0, src.Intn(60); i < n; i++ {
			r := trace.Record{
				Chunk:  i,
				Worker: src.Intn(workers+4) - 2,
				Size:   src.Uniform(0, 50),
				Probe:  src.Intn(6) == 0,
				Failed: src.Intn(6) == 0,
			}
			r.SendStart = times()
			r.SendEnd = r.SendStart + times()/10
			r.CompStart = r.SendEnd + times()/10
			r.CompEnd = r.CompStart + times()/5
			r.OutputEnd = r.CompEnd
			if zero {
				r.SendStart, r.SendEnd = -1, 0
				r.CompStart, r.CompEnd, r.OutputEnd = -src.Uniform(0, 5), 0, 0
			}
			tr.Add(r)
		}
		if zero && tr.Makespan() != 0 {
			t.Fatalf("trial %d: makespan %v, want 0", trial, tr.Makespan())
		}
		checkUplinkIdle(t, "seeded", tr, workers)
	}
}
