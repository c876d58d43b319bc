package live

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/model"
	"apstdv/internal/transport"
)

// Compute burns CPU for a load it can count and refuses any other
// before queueing: int(NaN·…) is MinInt64 on amd64, as is an iteration
// count past MaxInt64, so such a load would run zero iterations and
// report success.
func TestWorkerServiceCompute(t *testing.T) {
	for _, tc := range []struct {
		units float64
		ok    bool
	}{
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false}, {-1, false}, {1e300, false},
		{1e12, false}, // 10^16 iterations: countable, but past the limit
		{0, true}, {10, true},
	} {
		svc := NewWorkerService(10000, 1)
		var reply ComputeReply
		err := svc.Compute(ComputeArgs{Units: tc.units}, &reply)
		if !tc.ok {
			if err == nil {
				t.Errorf("units %g accepted (checksum %g)", tc.units, reply.Checksum)
			} else if !strings.Contains(err.Error(), "limit 1099511627776") {
				t.Errorf("units %g: error %q does not name the limit", tc.units, err)
			}
			if svc.Computed() != 0 {
				t.Errorf("units %g: computed count %d after a refusal", tc.units, svc.Computed())
			}
			continue
		}
		if err != nil {
			t.Fatalf("units %g: %v", tc.units, err)
		}
		if tc.units > 0 && reply.Checksum == 0 {
			t.Errorf("units %g: no work performed", tc.units)
		}
		if reply.Units != tc.units {
			t.Errorf("units %g: echoed units %g", tc.units, reply.Units)
		}
		if svc.Computed() != 1 {
			t.Errorf("units %g: computed count %d", tc.units, svc.Computed())
		}
	}
}

// Each fragment is acknowledged with its own length; the worker's byte
// count is the sum.
func TestWorkerServiceStoreAccounting(t *testing.T) {
	svc := NewWorkerService(1, 1)
	var r StoreReply
	if err := svc.Store(StoreArgs{Data: make([]byte, 100)}, &r); err != nil {
		t.Fatal(err)
	}
	if r.Received != 100 {
		t.Errorf("received %d", r.Received)
	}
	if err := svc.Store(StoreArgs{Data: make([]byte, 50)}, &r); err != nil {
		t.Fatal(err)
	}
	if r.Received != 50 {
		t.Errorf("received %d for the second fragment", r.Received)
	}
	if svc.BytesReceived() != 150 {
		t.Errorf("BytesReceived = %d", svc.BytesReceived())
	}
}

func TestWorkerServiceFetch(t *testing.T) {
	svc := NewWorkerService(1, 1)
	var r FetchReply
	if err := svc.Fetch(FetchArgs{Bytes: 64}, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Data) != 64 {
		t.Errorf("fetched %d bytes", len(r.Data))
	}
	if err := svc.Fetch(FetchArgs{Bytes: -1}, &r); err == nil {
		t.Error("negative fetch accepted")
	}
}

// A Fetch naming more bytes than any frame can carry is refused before
// the worker allocates them.
func TestWorkerServiceFetchRefusesOversized(t *testing.T) {
	svc := NewWorkerService(1, 1)
	var r FetchReply
	if err := svc.Fetch(FetchArgs{Bytes: transport.DefaultMaxFrame + 1}, &r); err == nil {
		t.Fatalf("fetch of %d bytes accepted", transport.DefaultMaxFrame+1)
	}
	if r.Data != nil {
		t.Errorf("refused fetch allocated %d bytes", len(r.Data))
	}
}

func TestServeAndDial(t *testing.T) {
	svc := NewWorkerService(1000, 1)
	addr, stop, err := Serve(svc)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	b, err := Dial([]WorkerConn{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	running(t, b)
	if b.Workers() != 1 {
		t.Errorf("Workers = %d", b.Workers())
	}
	var wg sync.WaitGroup
	wg.Add(1)
	b.Execute(0, 5, false, func(s, e float64, _ error) {
		if e < s {
			t.Errorf("timeline [%g, %g]", s, e)
		}
		wg.Done()
	})
	wg.Wait()
	if svc.Computed() != 1 {
		t.Errorf("computed %d", svc.Computed())
	}
}

func TestDialRejectsNoWorkers(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Error("empty worker list accepted")
	}
}

func TestDialRejectsBadAddr(t *testing.T) {
	if _, err := Dial([]WorkerConn{{Addr: "127.0.0.1:1"}}); err == nil {
		t.Error("unreachable worker accepted")
	}
}

func TestTransferMovesRealBytes(t *testing.T) {
	b, services, cleanup, err := Cluster(1, 1000, NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	running(t, b)
	var wg sync.WaitGroup
	wg.Add(1)
	b.Transfer(0, 1<<20, func(s, e float64, _ error) { wg.Done() })
	wg.Wait()
	if got := services[0].BytesReceived(); got != 1<<20 {
		t.Errorf("worker received %d bytes, want %d", got, 1<<20)
	}
}

// A transfer allocates no fragment buffer (every fragment is a slice of
// one shared zero buffer): 100 one-KiB transfers stay far below 100
// fragments of heap.
func TestSmallTransfersAllocateTheirSize(t *testing.T) {
	b, _, cleanup, err := Cluster(1, 1000, NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	running(t, b)
	const transfers = 100
	transfer := func() {
		done := make(chan struct{})
		b.Transfer(0, 1<<10, func(_, _ float64, _ error) { close(done) })
		<-done
	}
	transfer() // warm the connection
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < transfers; i++ {
		transfer()
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(transfers*fragmentSize/8); got > limit {
		t.Errorf("%d one-KiB transfers allocated %d bytes, want <= %d", transfers, got, limit)
	}
}

func TestNetModelPacesTransfers(t *testing.T) {
	b, _, cleanup, err := Cluster(1, 1000, NetModel{Latency: 30 * time.Millisecond, Bandwidth: 10 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	running(t, b)
	var dur float64
	var wg sync.WaitGroup
	wg.Add(1)
	b.Transfer(0, 1<<20, func(s, e float64, _ error) { dur = e - s; wg.Done() })
	wg.Wait()
	// 30 ms latency + 1 MiB at 10 MiB/s = 100 ms → at least 120 ms.
	if dur < 0.12 {
		t.Errorf("paced transfer took %.3fs, want ≥ 0.12s", dur)
	}
}

func TestLiveEndToEndWithEngine(t *testing.T) {
	// Full stack on real RPC workers: probing, planning, dispatching.
	b, services, cleanup, err := Cluster(3, 50000, NetModel{Latency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	app := &model.Application{
		Name: "live-test", TotalLoad: 120, BytesPerUnit: 2048,
		UnitCost: 1, MinChunk: 1,
	}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: b, Algorithm: dls.NewFixedRUMR(), App: app, Config: engine.Config{ProbeLoad: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := tr.BuildReport(3)
	if rep.TotalLoad < 119.9 {
		t.Errorf("computed %.1f of 120 units", rep.TotalLoad)
	}
	totalComputed := 0
	for _, svc := range services {
		totalComputed += svc.Computed()
	}
	// Real chunks + 2 calibration executions per worker (no-op + probe).
	if totalComputed < rep.Chunks {
		t.Errorf("workers computed %d RPCs for %d chunks", totalComputed, rep.Chunks)
	}
	if rep.Makespan <= 0 {
		t.Error("no time elapsed?")
	}
}

func TestLiveEndToEndAllPaperAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("live multi-algorithm run in -short mode")
	}
	for _, alg := range dls.PaperSet() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			b, _, cleanup, err := Cluster(2, 20000, NetModel{})
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			app := &model.Application{
				Name: "live", TotalLoad: 60, BytesPerUnit: 512,
				UnitCost: 1, MinChunk: 1,
			}
			tr, err := engine.Execute(context.Background(), engine.Request{
				Backend: b, Algorithm: alg, App: app, Config: engine.Config{ProbeLoad: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep := tr.BuildReport(2); rep.TotalLoad < 59.9 {
				t.Errorf("computed %.1f of 60", rep.TotalLoad)
			}
		})
	}
}

func TestStopIdempotent(t *testing.T) {
	b, _, cleanup, err := Cluster(1, 100, NetModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	b.Stop()
	b.Stop() // must not panic
	done := make(chan struct{})
	go func() { b.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("Run did not return after Stop")
	}
}

func TestHeterogeneousLiveWorkersProbeDifferently(t *testing.T) {
	// Two workers with a 3x speed gap: probing through the real stack
	// must measure the difference, and weighted factoring must give the
	// fast worker more load. At 600 000 iterations a unit the 6-unit probe
	// computes for milliseconds; at a tenth of that it took 0.2 ms and
	// scheduler noise outweighed the gap in one run of a hundred.
	svcSlow := NewWorkerService(600000, 1)
	addrSlow, stop1, err := Serve(svcSlow)
	if err != nil {
		t.Fatal(err)
	}
	defer stop1()
	svcFast := NewWorkerService(600000, 3)
	addrFast, stop2, err := Serve(svcFast)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	b, err := Dial([]WorkerConn{{Addr: addrSlow}, {Addr: addrFast}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	app := &model.Application{
		Name: "hetero", TotalLoad: 90, BytesPerUnit: 256,
		UnitCost: 1, MinChunk: 1,
	}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: b, Algorithm: dls.NewWeightedFactoring(), App: app, Config: engine.Config{ProbeLoad: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := tr.BuildReport(2)
	if rep.TotalLoad < 89.9 {
		t.Fatalf("computed %.1f of 90", rep.TotalLoad)
	}
	if rep.WorkerLoad[1] <= rep.WorkerLoad[0] {
		t.Errorf("fast worker got %.1f units, slow got %.1f — weights should favor fast",
			rep.WorkerLoad[1], rep.WorkerLoad[0])
	}
}

func TestLiveWorkerFailureSurfacesError(t *testing.T) {
	svc := NewWorkerService(10000, 1)
	addr, stop, err := Serve(svc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dial([]WorkerConn{{Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the worker mid-run: the engine must fail with the transport
	// error rather than hang.
	stop()
	app := &model.Application{
		Name: "doomed", TotalLoad: 50, BytesPerUnit: 1024,
		UnitCost: 1, MinChunk: 1,
	}
	done := make(chan error, 1)
	go func() {
		_, err := engine.Execute(context.Background(), engine.Request{
			Backend: b, Algorithm: dls.NewSimple(1), App: app,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("dead worker produced no engine error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine hung on a dead worker")
	}
}
