package grid

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/model"
	"apstdv/internal/raceflag"
	"apstdv/internal/trace"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// executeBarrier runs a world's jobs by JobView.Run's barrier protocol,
// the one bench/ drives: one goroutine per job, each launched once the
// previous one has entered Run, the last draining the heap.
func executeBarrier(t *testing.T, views []*JobView, apps []*model.Application) []*trace.Trace {
	t.Helper()
	trs := make([]*trace.Trace, len(views))
	errs := make([]error, len(views))
	done := make(chan struct{}, len(views))
	for i, v := range views {
		go func() {
			trs[i], errs[i] = engine.Execute(context.Background(), engine.Request{
				Backend: v, Algorithm: dls.NewRUMR(), App: apps[i],
			})
			done <- struct{}{}
		}()
		<-v.Entered()
	}
	for range views {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	return trs
}

// lastEnd returns the latest instant any record of the traces reaches.
func lastEnd(trs []*trace.Trace) float64 {
	end := 0.0
	for _, tr := range trs {
		for _, r := range tr.Records() {
			end = max(end, r.SendEnd, r.CompEnd, r.OutputEnd)
		}
	}
	return end
}

// TestDrainedWorldKeepsItsClock pins what a view's clock reads once its
// world has drained, on both drives: the time of the last event, which
// is the last job's finish and the end of the latest record. The
// engine's closing event is stamped with it.
func TestDrainedWorldKeepsItsClock(t *testing.T) {
	drives := map[string]func(*MultiWorld, []*JobView, []*model.Application) []*trace.Trace{
		"shared": func(w *MultiWorld, views []*JobView, apps []*model.Application) []*trace.Trace {
			return executeMultiWorld(t, w, views, apps)
		},
		"barrier": func(_ *MultiWorld, views []*JobView, apps []*model.Application) []*trace.Trace {
			return executeBarrier(t, views, apps)
		},
	}
	for name, drive := range drives {
		t.Run(name, func(t *testing.T) {
			w, views, apps := newTestWorld(t, FairPolicy(), []units.Load{20000, 4000, 9000}, []float64{0, 300, 600}, true, 200)
			trs := drive(w, views, apps)
			if w.b != nil {
				t.Fatal("the world kept its block after draining")
			}
			last := 0.0
			for i := range views {
				last = max(last, w.FinishedAt(i))
			}
			if end := lastEnd(trs); last != end {
				t.Fatalf("last finish %v, latest record end %v", last, end)
			}
			for i, v := range views {
				if got := v.Now(); got != last {
					t.Errorf("view %d reads %v after the drain, want the last event's %v", i, got, last)
				}
			}
		})
	}
}

// TestStopAfterDrainChangesNothing pins that a drained world's results
// are final and that its block, back in the pool, is no longer its own:
// a Stop after the drain — a cancellation landing late — touches neither
// the drained world nor the next world, which takes the same block.
func TestStopAfterDrainChangesNothing(t *testing.T) {
	loads, arrivals := []units.Load{20000, 4000, 9000}, []float64{0, 300, 600}
	w, views, apps := newTestWorld(t, SRPTPolicy(), loads, arrivals, true, 0)
	executeMultiWorld(t, w, views, apps)
	reshares := w.Reshares()
	finished := make([]float64, len(views))
	for i := range views {
		finished[i] = w.FinishedAt(i)
	}
	next, nextViews, nextApps := newTestWorld(t, SRPTPolicy(), loads, arrivals, true, 0)
	blk := next.b
	jobs, shares := slices.Clone(blk.jobs), slices.Clone(blk.shares)
	for _, v := range views {
		v.Stop()
	}
	if !slices.Equal(blk.jobs, jobs) || !slices.Equal(blk.shares, shares) || blk.reshares != 0 {
		t.Fatalf("a drained world's Stop changed the next world: jobs %+v, then %+v", jobs, blk.jobs)
	}
	if w.Reshares() != reshares {
		t.Fatalf("reshares %d after a late Stop, %d at the drain", w.Reshares(), reshares)
	}
	for i := range views {
		if w.FinishedAt(i) != finished[i] {
			t.Fatalf("job %d finish %v after a late Stop, %v at the drain", i, w.FinishedAt(i), finished[i])
		}
	}
	executeMultiWorld(t, next, nextViews, nextApps)
	for i := range views {
		if next.FinishedAt(i) != finished[i] {
			t.Fatalf("job %d of the next world finished at %v, the drained one's at %v", i, next.FinishedAt(i), finished[i])
		}
	}
}

// TestPooledWorldsMatchFreshOnes pins that reusing a block is invisible:
// worlds drained one after another, and worlds drained at once on
// separate goroutines, give exactly the schedules of worlds built on a
// fresh block. Under -race this is also the check that no block is
// shared between two live worlds.
func TestPooledWorldsMatchFreshOnes(t *testing.T) {
	cases := []struct {
		policy   string
		jobs     int
		outBytes units.Bytes
	}{{"fair", 3, 500}, {"srpt", 4, 0}, {"partition", 2, 0}, {"fairsplit", 4, 500}}
	fresh := make([][32]byte, len(cases))
	for i, c := range cases {
		fresh[i] = goldenWorldHash(t, newMultiBlock(), c.policy, c.jobs, c.outBytes)
	}
	check := func(t *testing.T, round int) {
		for i, c := range cases {
			if got := goldenWorldHash(t, nil, c.policy, c.jobs, c.outBytes); got != fresh[i] {
				t.Fatalf("round %d: pooled %s/%d differs from a fresh world", round, c.policy, c.jobs)
			}
		}
	}
	t.Run("sequential", func(t *testing.T) {
		for round := range 3 {
			check(t, round)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		for g := range 2 {
			t.Run(fmt.Sprint(g), func(t *testing.T) {
				t.Parallel()
				for round := range 3 {
					check(t, round)
				}
			})
		}
	})
}

// TestSecondWorldReusesItsBlock drives three jobs' views by hand —
// transfers, executions and returns, zero-byte ones too, the last job
// arriving late, under the fair policy — and then identical worlds
// again: each must allocate only itself, its barrier latch, its views
// with their Entered channels and the finish times it keeps, and
// nothing for its heap, queues, op table, stations or share rows.
func TestSecondWorldReusesItsBlock(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector drops pooled blocks at random")
	}
	p := workload.DAS2(8)
	apps := []*model.Application{mjApp(4000), mjApp(2000), mjApp(3000)}
	policy := FairPolicy()
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var views [3]*JobView
	ops := 0
	done := func(_, _ float64, _ error) { ops++ }
	world := func() {
		w, err := NewMultiWorld(p, policy)
		if err != nil {
			t.Fatal(err)
		}
		for i, app := range apps {
			if views[i], err = w.AddJob(app, all, float64(100*i)); err != nil {
				t.Fatal(err)
			}
		}
		ops = 0
		for _, v := range views {
			for wl := range 4 {
				v.Transfer(wl, 1e5, done)
				v.Execute(wl, 200, wl == 0, done)
				v.Execute(wl, 100, false, done)
				v.ReturnOutput(wl, 1e4, done)
				v.ReturnOutput(wl, 0, done)
			}
		}
		w.Run()
		if ops != 3*4*5 {
			t.Fatalf("%d operations completed, want %d", ops, 3*4*5)
		}
	}
	world()
	const want = 2 + 2*3 + 1
	if allocs := testing.AllocsPerRun(100, world); allocs > want {
		t.Fatalf("a world on a warm block allocated %.0f times, want %d", allocs, want)
	}
}
