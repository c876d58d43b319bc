package grid

import (
	"math"
	"testing"

	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// warmPolicyWorld builds a world with overlapping subsets, activates
// every job, and runs one revision so all policy and world scratch is
// grown.
func warmPolicyWorld(t *testing.T, policy SharePolicy) *MultiWorld {
	t.Helper()
	w, err := NewMultiWorld(workload.DAS2(4), policy)
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]int{{0, 1, 2, 3}, {0, 1}, {2, 3}}
	for i, sub := range subsets {
		// Distinct loads so SRPT exercises its weighted branch, not the
		// equal-load degenerate case.
		if _, err := w.AddJob(mjApp(units.Load(1000*(i+1))), sub, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range w.b.jobs {
		w.b.jobs[i].active = true
	}
	w.b.reshare()
	return w
}

// TestReshareAllocationFree pins the S-curve down: once a world's jobs
// have all arrived, every further share revision — the hot path of the
// multi-job event loop — must allocate nothing. The policies write into
// the world's live vectors and keep their own scratch between calls.
func TestReshareAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy SharePolicy
	}{
		{"fair", FairPolicy()},
		{"srpt", SRPTPolicy()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := warmPolicyWorld(t, tc.policy)
			if allocs := testing.AllocsPerRun(100, w.b.reshare); allocs > 0 {
				t.Fatalf("reshare on a warm world allocated %.1f allocs/op; want 0", allocs)
			}
			// Sanity: after in-place revision every worker's share mass
			// across active jobs still sums to exactly 1.
			for g := 0; g < 4; g++ {
				sum := 0.0
				for j := range w.b.jobs {
					sum += w.b.shareRow(j)[g]
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("worker %d shares sum to %g after reshare; want 1", g, sum)
				}
			}
		})
	}
}
