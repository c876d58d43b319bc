package grid

import (
	"context"
	"errors"
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
func linkPlatform(t testing.TB, upLat, leafLat units.Seconds) *model.Platform {
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
// unchanged ones. Flow 0 starts alone and takes the one-event path;
// flow 1 starts after flow 0's latency phase, so this is also the case
// of a solo flow joining the pool as if it had entered at its te.
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

// engineSteps drains the backend's engine one event at a time and
// returns how many events fired.
func engineSteps(b *Backend) int {
	n := 0
	for b.eng.Step() {
		n++
	}
	return n
}

// TestLinkSoloTransferIsOneEvent pins the one-event path: a transfer
// that starts on an empty net fires nothing but its completion, at the
// route latency (summed in route order) plus bytes at the bottleneck
// capacity — bit for bit what the latency phase's end and a rescale
// would compute.
func TestLinkSoloTransferIsOneEvent(t *testing.T) {
	const upLat, leafLat, bytes = 0.3, 0.1, 7e5
	b, err := New(linkPlatform(t, upLat, leafLat), testApp(0), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var end float64
	b.TransferOp(0, bytes, 0, func(_ uint64, _, e float64, err error) {
		if err != nil {
			t.Error(err)
		}
		end = e
	})
	if n := engineSteps(b); n != 1 {
		t.Errorf("a lone transfer took %d engine events, want 1", n)
	}
	lat := 0.0
	for _, l := range []float64{upLat, leafLat} {
		lat += l
	}
	if want := lat + bytes/1e6; end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	if b.links.solo != -1 || len(b.links.flows) != len(b.links.flowFree) {
		t.Error("the finished solo flow left state behind")
	}
}

// TestLinkSoloRejoinsTwoEventPath pins a solo flow that another flow
// joins before it has entered the pool: its completion becomes the
// latency phase's end, and from there the fluid model runs as if it had
// never been solo. Both flows share the 1e6 B/s uplink after 0.5 s of
// latency each; every time below is exact in binary.
//
//	second starts at 0.25 (w0 still in its latency phase):
//	  w0 enters at 0.5, alone at 1e6 B/s until w1 enters at 0.75
//	  w1: 2.5e5 B at 5e5 B/s                             → done at 1.25
//	  w0: 1e6 B = 2.5e5 + 2.5e5 at half rate + 5e5 alone → done at 1.75
//	second starts at 0.5, w0's te exactly (re-keyed into the enter
//	event; joining as if entered at te would give the same floats):
//	  w0 enters at 0.5, alone until w1 enters at 1.0: 5e5 B
//	  w1: 2.5e5 B at 5e5 B/s                             → done at 1.5
//	  w0: 2.5e5 B at half rate, 2.5e5 alone              → done at 1.75
func TestLinkSoloRejoinsTwoEventPath(t *testing.T) {
	for _, tc := range []struct {
		second, end0, end1 float64
	}{
		{0.25, 1.75, 1.25},
		{0.5, 1.75, 1.5},
	} {
		b, err := New(linkPlatform(t, 0.25, 0.25), testApp(0), Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var end0, end1 float64
		b.Transfer(0, 1e6, func(_, e float64, err error) {
			if err != nil {
				t.Errorf("w0: %v", err)
			}
			end0 = e
		})
		if b.links.solo < 0 {
			t.Fatal("a transfer on an empty net did not take the one-event path")
		}
		b.AfterFunc(tc.second, func(uint64) {
			b.Transfer(1, 2.5e5, func(_, e float64, err error) {
				if err != nil {
					t.Errorf("w1: %v", err)
				}
				end1 = e
			})
		})
		b.Run()
		if end0 != tc.end0 || end1 != tc.end1 {
			t.Errorf("second flow at %g: ends = [%v, %v], want [%v, %v]", tc.second, end0, end1, tc.end0, tc.end1)
		}
	}
}

// TestLinkResetClearsSolo pins Reset against the one-event path: a
// backend reused after a run cancelled while a solo flow was in flight,
// and again after a reset that found a solo flow pending, replays the
// identical event stream and makespan a fresh backend produces. The
// daemon reuses a slot's backend this way.
func TestLinkResetClearsSolo(t *testing.T) {
	platform := workload.WithTreeTopology(workload.Mixed(2, 2))
	app := workload.Synthetic(0.10)
	cfg := Config{Seed: 7}
	exec := func(b engine.Backend, ctx context.Context, sink obs.Sink) (float64, []obs.Event, error) {
		ebuf := obs.NewBuffer()
		if sink == nil {
			sink = ebuf
		}
		tr, err := runEngineOn(ctx, b, app, platform, sink, nil)
		return tr.Makespan(), ebuf.Events(), err
	}
	fresh, err := New(platform, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantMakespan, wantEvents, err := exec(fresh, context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(b *Backend, after string) {
		t.Helper()
		if err := b.Reset(app, cfg); err != nil {
			t.Fatal(err)
		}
		makespan, events, err := exec(b, context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if makespan != wantMakespan || !reflect.DeepEqual(events, wantEvents) {
			t.Errorf("after %s: replay differs from a fresh backend (makespan %v, want %v)", after, makespan, wantMakespan)
		}
	}

	reused, err := New(platform, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The engine marks a run cancelled before it stops a Stopper
	// backend, so once Stop is called the next callback aborts the run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stoppable := stopSignal{reused, make(chan struct{})}
	sawSolo := false
	_, _, err = exec(stoppable, ctx, sinkFunc(func(*obs.Event) {
		if !sawSolo && reused.links.solo >= 0 {
			sawSolo = true
			cancel()
			<-stoppable.stopped
		}
	}))
	if !sawSolo || !errors.Is(err, context.Canceled) {
		t.Fatalf("run saw a solo flow: %v, ended with %v; want a run cancelled while one was in flight", sawSolo, err)
	}
	replay(reused, "a cancelled run")

	reused.TransferOp(0, 1e6, 0, func(uint64, float64, float64, error) {})
	if reused.links.solo < 0 {
		t.Fatal("a transfer on an empty net did not take the one-event path")
	}
	replay(reused, "a reset with a solo flow pending")
}

// stopSignal is a Backend the engine can stop; Stop only reports that
// it was called.
type stopSignal struct {
	*Backend
	stopped chan struct{}
}

func (s stopSignal) Stop() { close(s.stopped) }

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(*obs.Event)

func (f sinkFunc) EmitPtr(e *obs.Event) { f(e) }

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
		tr, err := runEngineOn(context.Background(), b, app, platform, ebuf, arena)
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
func runEngineOn(ctx context.Context, b engine.Backend, app *model.Application, p *model.Platform, events obs.Sink, arena *engine.Arena) (*trace.Trace, error) {
	return engine.Execute(ctx, engine.Request{
		Backend: b, Algorithm: dls.NewRUMR(), App: app, Platform: p,
		Config: engine.Config{Events: events},
		Arena:  arena,
	})
}

// BenchmarkLinkTransfer is the link model's own number: the cost of a
// transfer on linkPlatform alone on the net (the one-event path) and as
// one of two overlapping flows sharing the uplink (the two-event path
// with a rescale at every membership change), in ns and engine events
// per transfer.
func BenchmarkLinkTransfer(b *testing.B) {
	for _, bc := range []struct {
		name  string
		flows int
	}{{"lone", 1}, {"overlapping", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			be, err := New(linkPlatform(b, 0.25, 0.25), testApp(0), Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			done := func(uint64, float64, float64, error) {}
			events := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := 0; w < bc.flows; w++ {
					be.TransferOp(w, 1e6, 0, done)
				}
				events += engineSteps(be)
			}
			transfers := float64(b.N * bc.flows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/transfers, "ns/transfer")
			b.ReportMetric(float64(events)/transfers, "events/transfer")
		})
	}
}
