// Quickstart: schedule a divisible load application on a small simulated
// cluster with UMR, then run the same schedule against real RPC workers
// (the live backend) to show the engine is backend-agnostic.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/live"
	"apstdv/internal/model"
	"apstdv/internal/units"
)

func main() {
	// A 4-worker cluster: affine communication (0.5 s start-up, 1 MB/s)
	// and computation (0.1 s start-up) costs, heterogeneous speeds.
	platform := &model.Platform{Name: "quickstart-4"}
	speeds := []float64{1.0, 1.0, 0.8, 0.5}
	for i, s := range speeds {
		platform.Workers = append(platform.Workers, model.Worker{
			ID: i, Name: fmt.Sprintf("node-%d", i), Cluster: "lab",
			Speed: s, CompLatency: 0.1,
			Bandwidth: 1e6, CommLatency: 0.5,
		})
	}

	// A 100 MB application: 10,000 load units of 10 kB, 50 ms of compute
	// per unit on a speed-1 worker, 5% uncertainty.
	app := &model.Application{
		Name:         "quickstart-app",
		TotalLoad:    10000,
		BytesPerUnit: 10 * units.KB,
		UnitCost:     0.05,
		Gamma:        0.05,
		MinChunk:     1,
	}

	fmt.Println("=== simulated run (virtual time) ===")
	for _, alg := range []dls.Algorithm{dls.NewSimple(1), dls.NewUMR(), dls.NewFixedRUMR()} {
		backend, err := grid.New(platform, app, grid.Config{Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		tr, err := engine.Execute(context.Background(), engine.Request{
			Backend: backend, Algorithm: alg, App: app, Platform: platform,
			Config: engine.Config{ProbeLoad: 50},
		})
		if err != nil {
			log.Fatal(err)
		}
		rep := tr.BuildReport(len(platform.Workers))
		fmt.Printf("%-12s makespan %7.1fs  chunks %3d  comm/comp overlap %3.0f%%\n",
			alg.Name(), rep.Makespan, rep.Chunks, 100*rep.Overlap)
	}

	// The same engine, the same algorithm, but real goroutine workers
	// behind the frame transport on localhost: real bytes cross TCP and
	// real CPU burns per load unit. Scaled down so the demo finishes in
	// seconds.
	fmt.Println("\n=== live run (real time, 4 RPC workers on localhost) ===")
	liveApp := &model.Application{
		Name:         "quickstart-live",
		TotalLoad:    400,
		BytesPerUnit: 4 * units.KB,
		UnitCost:     1, // descriptive only: real speed is probed
		MinChunk:     1,
	}
	backend, services, cleanup, err := live.Cluster(4, 300_000, live.NetModel{
		Latency:   5 * time.Millisecond,
		Bandwidth: 20e6,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	start := time.Now()
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: backend, Algorithm: dls.NewUMR(), App: liveApp,
		Config: engine.Config{ProbeLoad: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	rep := tr.BuildReport(4)
	fmt.Printf("umr          makespan %7.2fs (wall %v)  chunks %d\n",
		rep.Makespan, time.Since(start).Round(10*time.Millisecond), rep.Chunks)
	for i, svc := range services {
		fmt.Printf("  worker %d computed %d chunks, received %s\n",
			i, svc.Computed(), units.Bytes(svc.BytesReceived()))
	}
}
