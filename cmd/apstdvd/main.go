// Command apstdvd is the APST-DV daemon: it owns the platform, accepts
// divisible load application submissions from the apstdv console, runs
// them under a DLS algorithm, and serves execution reports.
//
//	# simulate the paper's mixed grid
//	apstdvd -listen :4321 -mode sim -platform mixed:8,8
//
//	# simulate a platform described in XML
//	apstdvd -listen :4321 -mode sim -resources resources.xml
//
//	# drive real local RPC workers
//	apstdvd -listen :4321 -mode live -workers 4 -workperunit 2000000
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/live"
	"apstdv/internal/model"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/spec"
	"apstdv/internal/workload"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:4321", "address to serve the client RPC interface on")
		mode        = flag.String("mode", "sim", "execution mode: sim or live")
		platform    = flag.String("platform", "das2:16", "built-in platform for sim mode: das2:N, meteor:N, mixed:N,M, grail")
		resources   = flag.String("resources", "", "XML resource description (overrides -platform)")
		seed        = flag.Uint64("seed", 1, "sim-mode base seed")
		specDir     = flag.String("specdir", ".", "directory for resolving files referenced by task specs")
		workers     = flag.Int("workers", 2, "live mode: number of local RPC workers to start")
		workPerUnit = flag.Int("workperunit", 1_000_000, "live mode: compute iterations per load unit")
		workerAddrs = flag.String("workeraddrs", "", "live mode: comma-separated external worker addresses (overrides -workers)")
		telemetry   = flag.String("telemetry", "", "HTTP address for /metrics, /healthz and /debug/pprof (empty disables)")
		maxJobs     = flag.Int("max-concurrent-jobs", 0, "jobs allowed to run at once (0 = mode default: 1 in live, unlimited in sim)")
		queueDepth  = flag.Int("queue-depth", 0, "admission queue bound; overflow is rejected (0 = unbounded)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for running jobs before they are cancelled")
		traceOn     = flag.Bool("trace", false, "record per-job spans; inspect via 'apstdv trace' or /debug/trace")
		traceSpans  = flag.Int("trace-spans", 0, "span ring capacity (0 = default; implies -trace)")
		traceOut    = flag.String("trace-out", "", "stream spans as Chrome-trace JSONL here, for Perfetto (implies -trace)")
		cosched     = flag.String("cosched", "", "live mode: cross-job worker policy: partition (disjoint grants, default), fair (even time-sharing) or srpt (inverse-load weighted)")
	)
	flag.Parse()

	cfg := daemon.Config{
		Seed: *seed, SpecDir: *specDir,
		MaxConcurrentJobs: *maxJobs, QueueDepth: *queueDepth,
		CoschedPolicy: *cosched,
	}
	// The trace collector and its optional Chrome-trace stream. The
	// exporter is flushed on the graceful-shutdown path; a crash loses
	// at most the buffered tail (the JSONL lines written so far stand).
	closeTrace := func() {}
	if *traceOn || *traceSpans > 0 || *traceOut != "" {
		cfg.Trace = otrace.New(*traceSpans)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Fatalf("apstdvd: trace-out: %v", err)
			}
			exp := otrace.NewChromeExporter(f)
			cfg.Trace.SetExporter(exp)
			closeTrace = func() {
				if err := exp.Close(); err != nil {
					log.Printf("apstdvd: trace-out flush: %v", err)
				}
				f.Close()
			}
		}
	}
	switch *mode {
	case "sim":
		cfg.Mode = daemon.ModeSim
		p, err := resolvePlatform(*resources, *platform)
		if err != nil {
			log.Fatalf("apstdvd: %v", err)
		}
		cfg.Platform = p
	case "live":
		cfg.Mode = daemon.ModeLive
		if *workerAddrs != "" {
			for _, addr := range strings.Split(*workerAddrs, ",") {
				cfg.LiveWorkers = append(cfg.LiveWorkers, live.WorkerConn{Addr: strings.TrimSpace(addr)})
			}
			break
		}
		for i := 0; i < *workers; i++ {
			svc := live.NewWorkerService(*workPerUnit, 1)
			addr, _, err := live.Serve(svc)
			if err != nil {
				log.Fatalf("apstdvd: starting worker %d: %v", i, err)
			}
			cfg.LiveWorkers = append(cfg.LiveWorkers, live.WorkerConn{Addr: addr})
			log.Printf("apstdvd: worker %d at %s", i, addr)
		}
	default:
		log.Fatalf("apstdvd: unknown mode %q", *mode)
	}

	d, err := daemon.New(cfg)
	if err != nil {
		log.Fatalf("apstdvd: %v", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("apstdvd: %v", err)
	}
	if *telemetry != "" {
		tln, err := net.Listen("tcp", *telemetry)
		if err != nil {
			log.Fatalf("apstdvd: telemetry listen: %v", err)
		}
		srv := &http.Server{Handler: d.TelemetryHandler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.Serve(tln); err != nil && err != http.ErrServerClosed {
				log.Fatalf("apstdvd: telemetry: %v", err)
			}
		}()
		log.Printf("apstdvd: telemetry on http://%s/metrics", tln.Addr())
	}
	log.Printf("apstdvd: %s mode, serving on %s", *mode, ln.Addr())

	// SIGINT/SIGTERM drains gracefully: stop admitting, cancel the
	// queue, let running jobs finish within -drain-timeout, then cancel
	// them too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.ServeFrame(ln) }()
	select {
	case err := <-serveErr:
		closeTrace()
		if err != nil {
			log.Fatalf("apstdvd: %v", err)
		}
	case s := <-sig:
		log.Printf("apstdvd: %v received, draining (budget %v)", s, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		err := d.Shutdown(ctx)
		cancel()
		ln.Close()
		closeTrace()
		if err != nil {
			log.Fatalf("apstdvd: drain: %v", err)
		}
		log.Printf("apstdvd: drained, bye")
	}
}

func resolvePlatform(resourcesPath, builtin string) (*model.Platform, error) {
	if resourcesPath != "" {
		res, err := spec.ParseResourcesFile(resourcesPath)
		if err != nil {
			return nil, err
		}
		return res.Platform(strings.TrimSuffix(resourcesPath, ".xml"))
	}
	return workload.ParsePlatform(builtin)
}
