// Command apstdv-worker runs a standalone APST-DV live worker: an RPC
// service that receives chunk data and burns CPU per load unit. Start
// one per machine (or per CPU) and point a live-mode daemon at them:
//
//	apstdv-worker -listen :5001 -workperunit 2000000 &
//	apstdv-worker -listen :5002 -workperunit 2000000 -speed 0.5 &
//	apstdvd -mode live -workeraddrs 127.0.0.1:5001,127.0.0.1:5002
//
// The -speed flag scales the effective compute rate, letting a
// homogeneous test machine impersonate a heterogeneous platform.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"apstdv/internal/live"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:0", "address to serve on")
		workPerUnit = flag.Int("workperunit", 1_000_000, "compute iterations per load unit")
		speed       = flag.Float64("speed", 1.0, "relative speed factor (2 = twice as fast)")
	)
	flag.Parse()
	if *workPerUnit <= 0 {
		fmt.Fprintln(os.Stderr, "apstdv-worker: -workperunit must be positive")
		os.Exit(2)
	}
	svc := live.NewWorkerService(*workPerUnit, *speed)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("apstdv-worker: %v", err)
	}
	live.ServeListener(svc, ln)
	log.Printf("apstdv-worker: serving on %s (workperunit=%d speed=%.2f)", ln.Addr(), *workPerUnit, *speed)
	select {}
}
