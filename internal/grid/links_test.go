package grid

import (
	"context"
	"math"
	"reflect"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	"apstdv/internal/trace"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// linkPlatform builds a 2-worker platform whose topology funnels both
// leaves (fast, so never the bottleneck) through one shared uplink.
// Worker CommLatency is deliberately non-zero: under a topology, only
// the route's link latencies may matter.
func linkPlatform(t *testing.T, upLat, leafLat units.Seconds) *model.Platform {
	t.Helper()
	top, err := model.NewTopology().
		Link("up", 1e6, upLat).
		Link("leaf-0", 1e7, leafLat).
		Link("leaf-1", 1e7, leafLat).
		Route(0, "up", "leaf-0").
		Route(1, "up", "leaf-1").
		Build(2)
	if err != nil {
		t.Fatal(err)
	}
	p := &model.Platform{Name: "linktest", Topology: top}
	for i := 0; i < 2; i++ {
		p.Workers = append(p.Workers, model.Worker{
			ID: i, Name: "w", Cluster: "c",
			Speed: 1, CompLatency: 0.5,
			Bandwidth: 1e6, CommLatency: 5,
		})
	}
	return p
}

// TestLinkFairShare pins the fluid model's arithmetic: two flows
// sharing the 1e6 B/s uplink each run at 5e5 B/s; when the short one
// drains, the survivor is re-scaled to the full capacity.
//
//	w1: 5e5 B at 5e5 B/s                  → done at t=1
//	w0: 1.5e6 B = 5e5 at half rate (t≤1) + 1e6 at full rate → done at t=2
func TestLinkFairShare(t *testing.T) {
	b, err := New(linkPlatform(t, 0, 0), testApp(0), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var end0, end1 float64
	b.Transfer(0, 1.5e6, func(_, e float64, err error) {
		if err != nil {
			t.Errorf("w0: %v", err)
		}
		end0 = e
	})
	b.Transfer(1, 5e5, func(_, e float64, err error) {
		if err != nil {
			t.Errorf("w1: %v", err)
		}
		end1 = e
	})
	b.Run()
	if math.Abs(end1-1) > 1e-9 || math.Abs(end0-2) > 1e-9 {
		t.Errorf("ends = [%g, %g], want [2, 1]", end0, end1)
	}
}

// TestLinkRescaleBanksEveryFlow pins what a membership change does to a
// flow whose rate it leaves unchanged: the progress made so far is
// banked and the completion re-made from the banked remainder. In
// floating point that is not a no-op (here it moves the end by an ulp),
// which is why rescale banks every active flow instead of skipping the
// unchanged ones.
func TestLinkRescaleBanksEveryFlow(t *testing.T) {
	top, err := model.NewTopology().
		Link("a", 3e5, 0).
		Link("b", 1e6, 0).
		Route(0, "a").
		Route(1, "b").
		Build(2)
	if err != nil {
		t.Fatal(err)
	}
	p := testPlatform(2)
	p.Topology = top
	b, err := New(p, testApp(0), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var end0, start1, end1 float64
	b.Transfer(0, 1e6, func(_, e float64, _ error) { end0 = e })
	b.AfterFunc(0.3, func(uint64) {
		b.Transfer(1, 1e5, func(s, e float64, _ error) { start1, end1 = s, e })
	})
	b.Run()
	// Flow 0 runs alone on link a at 3e5 B/s; flow 1's start and finish,
	// on the disjoint link b, each bank it at that rate.
	rem := 1e6 - 3e5*start1
	rem -= 3e5 * (end1 - start1)
	if want := end1 + rem/3e5; end0 != want {
		t.Errorf("flow 0 ended at %v, want %v (banked at both of flow 1's membership changes)", end0, want)
	}
	if unbanked := 1e6 / 3e5; end0 == unbanked {
		t.Errorf("flow 0 ended at the unbanked %v: the test cannot tell banking from skipping", unbanked)
	}
}

// TestLinkRouteLatency pins the fixed start-up phase: a route's latency
// is the sum of its links', and the worker's star-model CommLatency is
// ignored under a topology.
func TestLinkRouteLatency(t *testing.T) {
	b, err := New(linkPlatform(t, 1, 0.5), testApp(0), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var end float64
	b.Transfer(0, 1e6, func(_, e float64, err error) {
		if err != nil {
			t.Error(err)
		}
		end = e
	})
	b.Run()
	// 1.5 s latency + 1e6 B at the solo uplink rate 1e6 B/s.
	if math.Abs(end-2.5) > 1e-9 {
		t.Errorf("end = %g, want 2.5", end)
	}
}

// TestPeerTransferCrashSemantics pins the site-storage contract on both
// network models: a crashed *source* still serves a peer transfer (the
// data outlives the worker process on its site), while a crashed
// *destination* truncates it at the crash instant.
func TestPeerTransferCrashSemantics(t *testing.T) {
	plan := &FaultPlan{Faults: []WorkerFault{{Worker: 0, Kind: FaultCrash, At: 0.25}}}
	flat := testPlatform(2)
	run := func(p *model.Platform) (fromDead, toDead error) {
		b, err := New(p, testApp(0), Config{Seed: 1, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		b.PeerTransferOp(0, 1, 1e7, 0, func(_ uint64, _, _ float64, err error) { fromDead = err })
		b.PeerTransferOp(1, 0, 1e7, 0, func(_ uint64, _, end float64, err error) {
			toDead = err
			if math.Abs(end-0.25) > 1e-9 {
				t.Errorf("transfer to crashed worker ended at %g, want crash instant 0.25", end)
			}
		})
		b.Run()
		return
	}
	for _, p := range []*model.Platform{flat, linkPlatform(t, 0, 0)} {
		fromDead, toDead := run(p)
		if fromDead != nil {
			t.Errorf("%s: peer transfer from crashed source failed: %v", p.Name, fromDead)
		}
		if toDead == nil {
			t.Errorf("%s: peer transfer to crashed destination succeeded", p.Name)
		}
	}
}

// TestNilTopologySkipsLinkNet pins the differential guarantee at the
// construction level: without a topology no link state exists at all,
// so the legacy star paths run untouched (the golden stream tests pin
// the resulting bytes).
func TestNilTopologySkipsLinkNet(t *testing.T) {
	b, err := New(testPlatform(2), testApp(0), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.links != nil {
		t.Fatal("nil-topology backend built a linkNet")
	}
	tree, err := New(linkPlatform(t, 0, 0), testApp(0), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.links == nil {
		t.Fatal("topology backend has no linkNet")
	}
}

// TestLinkResetByteIdentical pins arena reuse for link state: a full
// engine run on a tree platform, through Backend.Reset, replays to the
// identical event stream and makespan a fresh backend produces.
func TestLinkResetByteIdentical(t *testing.T) {
	platform := workload.WithTreeTopology(workload.Mixed(2, 2))
	app := workload.Synthetic(0.10)
	cfg := Config{Seed: 7}

	type outcome struct {
		makespan float64
		events   []obs.Event
	}
	exec := func(b *Backend, arena *engine.Arena) outcome {
		ebuf := obs.NewBuffer()
		tr, err := runEngineOn(t, b, app, platform, ebuf, arena)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{makespan: tr.Makespan(), events: ebuf.Events()}
	}

	arena := engine.NewArena()
	fresh, err := New(platform, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := exec(fresh, arena)

	// Same backend: one run to dirty every arena, then Reset and replay.
	reused, err := New(platform, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec(reused, arena)
	if err := reused.Reset(app, cfg); err != nil {
		t.Fatal(err)
	}
	got := exec(reused, arena)

	if got.makespan != want.makespan {
		t.Errorf("reset makespan %g != fresh %g", got.makespan, want.makespan)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Error("engine event stream differs after Reset")
	}
}

// runEngineOn drives one full RUMR execution against the backend.
func runEngineOn(t *testing.T, b *Backend, app *model.Application, p *model.Platform, events obs.Sink, arena *engine.Arena) (*trace.Trace, error) {
	t.Helper()
	return engine.Execute(context.Background(), engine.Request{
		Backend: b, Algorithm: dls.NewRUMR(), App: app, Platform: p,
		Config: engine.Config{Events: events},
		Arena:  arena,
	})
}
