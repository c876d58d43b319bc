// Command loadgen drives an already-running APST-DV daemon with an
// open-loop Poisson stream of task submissions and reports
// submit-latency percentiles, the accepted and rejected rates, and
// post-drain queue-wait percentiles. It is the operator's tool; the
// repository's performance numbers come from `bash bench/run.sh`.
//
//	loadgen -addr 127.0.0.1:4321 -rate 500 -duration 10s
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/loadgen"
)

func main() {
	var (
		addr        = flag.String("addr", "", "daemon address (required)")
		rate        = flag.Float64("rate", 2000, "offered load, submissions/sec (Poisson)")
		duration    = flag.Duration("duration", 5*time.Second, "generation window")
		outstanding = flag.Int("outstanding", 256, "max in-flight submissions before arrivals are shed")
		conns       = flag.Int("conns", 2, "client connection-pool width")
		seed        = flag.Int64("seed", 1, "arrival-process seed")
		priority    = flag.String("priority", "", "admission class for submissions")
		specPath    = flag.String("spec", "", "task XML to submit (empty = builtin bench spec)")
		load        = flag.Int("load", 200, "builtin spec: work units per job")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run here")
	)
	flag.Parse()
	if *addr == "" {
		fatal(fmt.Errorf("-addr is required: start a daemon first (apstdvd -listen ...)"))
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
	res, err := loadgen.Run(*addr, loadgen.Config{
		Conns: *conns, Rate: *rate, Duration: *duration,
		MaxOutstanding: *outstanding, Seed: *seed,
		TaskXML: taskXML, Priority: *priority,
		SimApp: &daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 1000},
	})
	if err != nil {
		fatal(err)
	}
	printResult(res)
}

func printResult(r *loadgen.Result) {
	fmt.Printf("offered %d (%.0f/s for %.1fs)  accepted %d  rejected %d  shed %d  errors %d\n",
		r.Offered, r.RateHz, r.Seconds, r.Accepted, r.Rejected, r.Shed, r.Errors)
	fmt.Printf("  accepted %.0f/s  rejected %.0f/s\n", r.AcceptedHz, r.RejectedHz)
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
	os.Exit(1)
}
