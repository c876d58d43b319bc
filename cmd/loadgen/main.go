// Command loadgen load-tests an APST-DV daemon's serving path: an
// open-loop Poisson stream of task submissions, with submit-latency
// percentiles, the sustained completed-submission rate, and post-drain
// queue-wait percentiles.
//
//	# load-test a self-hosted sim daemon
//	loadgen -rate 2000 -duration 5s
//
//	# drive an already-running daemon
//	loadgen -addr 127.0.0.1:4321 -rate 500 -duration 10s
//
//	# machine-readable output (scripts/bench.sh consumes this)
//	loadgen -json
//
// Without -addr, the run gets a fresh in-process sim daemon with
// bounded admission (queue depth and one slot), so it exercises the
// production backpressure path: accepted jobs queue and run, overflow
// is fast-rejected with a typed error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/experiment"
	"apstdv/internal/loadgen"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "", "daemon address (empty = self-host a sim daemon)")
		rate        = flag.Float64("rate", 2000, "offered load, submissions/sec (Poisson)")
		duration    = flag.Duration("duration", 5*time.Second, "generation window")
		outstanding = flag.Int("outstanding", 256, "max in-flight submissions before arrivals are shed")
		conns       = flag.Int("conns", 2, "client connection-pool width")
		seed        = flag.Int64("seed", 1, "arrival-process seed")
		priority    = flag.String("priority", "", "admission class for submissions")
		specPath    = flag.String("spec", "", "task XML to submit (empty = builtin bench spec)")
		load        = flag.Int("load", 200, "builtin spec: work units per job")
		platform    = flag.String("platform", "das2:4", "self-host: sim platform")
		maxJobs     = flag.Int("max-concurrent-jobs", 1, "self-host: concurrent job slots")
		queueDepth  = flag.Int("queue-depth", 64, "self-host: admission queue bound")
		retainJobs  = flag.Int("retain-jobs", 2048, "self-host: terminal jobs retained (0 = all; bounded so the post-run job listing stays under the frame size cap)")
		jsonOut     = flag.Bool("json", false, "emit JSON instead of text")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run here")
		traceOn     = flag.Bool("trace", true, "self-host: run the daemon with tracing so per-stage latency attribution lands in the result")
		multijob    = flag.Bool("multijob", false, "run the multi-job co-scheduling sweep instead of the serving-path load test")
	)
	flag.Parse()
	if *multijob {
		runMultiJob(*jsonOut)
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	taskXML := loadgen.BenchSpec(*load)
	if *specPath != "" {
		b, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		taskXML = string(b)
	}
	cfg := loadgen.Config{
		Conns: *conns, Rate: *rate, Duration: *duration,
		MaxOutstanding: *outstanding, Seed: *seed,
		TaskXML: taskXML, Priority: *priority,
		SimApp: &daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 1000},
		Trace:  *traceOn,
	}

	if *addr == "" {
		p, err := workload.ParsePlatform(*platform)
		if err != nil {
			fatal(err)
		}
		dcfg := daemon.Config{
			Mode: daemon.ModeSim, Platform: p, Seed: 1,
			MaxConcurrentJobs: *maxJobs, QueueDepth: *queueDepth, RetainJobs: *retainJobs,
		}
		if *traceOn {
			dcfg.Trace = otrace.New(0)
		}
		a, stop, err := loadgen.SelfHost(dcfg)
		if err != nil {
			fatal(err)
		}
		defer stop()
		*addr = a
	}
	res, err := loadgen.Run(*addr, cfg)
	if err != nil {
		fatal(err)
	}
	emit(*jsonOut, res)
}

func emit(asJSON bool, res *loadgen.Result) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
		return
	}
	printResult(res)
}

func printResult(r *loadgen.Result) {
	fmt.Printf("offered %d (%.0f/s for %.1fs)  accepted %d  rejected %d  shed %d  errors %d\n",
		r.Offered, r.RateHz, r.Seconds, r.Accepted, r.Rejected, r.Shed, r.Errors)
	fmt.Printf("  sustained %.0f submissions/s\n", r.SustainedHz)
	fmt.Printf("  submit latency  p50 %.2fms  p90 %.2fms  p99 %.2fms  p99.9 %.2fms  max %.2fms (n=%d)\n",
		r.Submit.P50, r.Submit.P90, r.Submit.P99, r.Submit.P999, r.Submit.Max, r.Submit.N)
	if r.QueueWait.N > 0 {
		fmt.Printf("  queue wait      p50 %.0fms  p99 %.0fms  max %.0fms (n=%d, %.0f%% of accepted)\n",
			r.QueueWait.P50, r.QueueWait.P99, r.QueueWait.Max, r.QueueWait.N,
			r.QueueWaitSampledFraction*100)
	}
	for _, s := range r.Stages {
		fmt.Printf("  stage %-10s p50 %8.3fms  p90 %8.3fms  p99 %8.3fms  max %8.3fms (n=%d of %d)\n",
			s.Stage, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxMs, s.Sampled, s.Count)
	}
}

// runMultiJob runs the multi-job co-scheduling sweep (simulated
// shared-world policy comparison; scripts/bench.sh splices the JSON
// into the benchmark snapshot as a "multijob" object).
func runMultiJob(asJSON bool) {
	cells, err := experiment.DefaultMultiJobSweep().Run()
	if err != nil {
		fatal(err)
	}
	if !asJSON {
		fmt.Println(experiment.RenderMultiJob(cells))
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Cells []experiment.MultiJobCell `json:"cells"`
	}{cells}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
	os.Exit(1)
}
