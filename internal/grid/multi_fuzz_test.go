package grid

import (
	"math"
	"reflect"
	"testing"

	"apstdv/internal/trace"
	"apstdv/internal/units"
)

// FuzzMultiWorldConserves drives the shared world with 1–4 RUMR jobs on
// DAS-2×8: fuzzed loads, arrivals from 0 to 2 000 s, disjoint or shared
// worker subsets, no policy, fair or srpt, and output returned or not.
// Every job must complete; its non-probe records must add up to its
// load; no record may start sending before its job arrives; each job
// finishes at or after its arrival; and a second world built from the
// same input must give identical traces and finish times.
func FuzzMultiWorldConserves(f *testing.F) {
	f.Add(uint8(2), uint8(1), true, false, uint16(40000), uint16(8000), uint16(0), uint16(0), uint16(0), uint16(500), uint16(0), uint16(0))
	f.Add(uint8(3), uint8(0), false, true, uint16(20000), uint16(8000), uint16(12000), uint16(0), uint16(0), uint16(500), uint16(1000), uint16(0))
	f.Add(uint8(4), uint8(2), true, true, uint16(300), uint16(65535), uint16(7), uint16(9000), uint16(2000), uint16(0), uint16(1999), uint16(40))
	f.Add(uint8(1), uint8(1), false, false, uint16(5000), uint16(0), uint16(0), uint16(0), uint16(1500), uint16(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, jobs, policy uint8, shared, output bool, l0, l1, l2, l3, a0, a1, a2, a3 uint16) {
		n := 1 + int(jobs)%4
		loads := [4]units.Load{}
		arrivals := [4]float64{}
		for i, l := range [4]uint16{l0, l1, l2, l3} {
			loads[i] = units.Load(100 + int(l)%40000)
		}
		for i, a := range [4]uint16{a0, a1, a2, a3} {
			arrivals[i] = float64(int(a) % 2001)
		}
		run := func() ([]*trace.Trace, []float64) {
			var sp SharePolicy
			switch policy % 3 {
			case 1:
				sp = FairPolicy()
			case 2:
				sp = SRPTPolicy()
			}
			var outBytes units.Bytes
			if output {
				outBytes = 500
			}
			w, views, apps := newTestWorld(t, sp, loads[:n], arrivals[:n], shared, outBytes)
			trs := executeMultiWorld(t, w, views, apps)
			finished := make([]float64, n)
			for i := range finished {
				finished[i] = w.FinishedAt(i)
			}
			return trs, finished
		}
		trs, finished := run()
		for i, tr := range trs {
			sum := 0.0
			for _, r := range tr.Records() {
				if r.SendStart < arrivals[i] {
					t.Fatalf("job %d (arrival %g): chunk %d starts sending at %g", i, arrivals[i], r.Chunk, r.SendStart)
				}
				if !r.Probe && !r.Failed {
					sum += r.Size
				}
			}
			if load := float64(loads[i]); math.Abs(sum-load) > 1e-9*load {
				t.Fatalf("job %d: records add up to %v of load %v", i, sum, load)
			}
			if finished[i] < arrivals[i] {
				t.Fatalf("job %d finished at %g, before its arrival %g", i, finished[i], arrivals[i])
			}
		}
		again, finishedAgain := run()
		if !reflect.DeepEqual(finished, finishedAgain) {
			t.Fatalf("finish times differ between identical worlds: %v vs %v", finished, finishedAgain)
		}
		for i := range trs {
			if !reflect.DeepEqual(trs[i].Records(), again[i].Records()) {
				t.Fatalf("job %d's trace differs between identical worlds", i)
			}
		}
	})
}
