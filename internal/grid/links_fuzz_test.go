package grid

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"apstdv/internal/model"
	"apstdv/internal/units"
)

// FuzzLinkFlowsMatchReference runs 1–4 master or peer transfers, with
// fuzzed start times and byte counts, over a fuzzed topology of at most
// three links and an optional crash, through linkNet and through
// refLinkFlows, a plain fluid simulator written from DESIGN's rules. Each
// op must end where the reference says, within 1e-9 relative, and fail
// exactly when the reference says the crash cut it (a flow that drains
// within that tolerance of the crash instant may go either way). The
// script is read a byte at a time, zeros past its end:
//
//	shape: 1–3 links, 2 or 3 workers
//	per link (3): parent link, capacity, latency
//	per worker (3): the link its route ends at
//	crash: on/worker, instant
//	ops: count, then per op (4): kind/worker, start, bytes (2)
func FuzzLinkFlowsMatchReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 10, 0})                           // one lone transfer
	f.Add([]byte{5, 0, 3, 1, 1, 7, 0, 1, 7, 0, 1, 2, 0, 0, 0, 1, 0, 2, 2, 40, 10, 0, 1, 50, 3, 0})             // latency-phase rejoin
	f.Add([]byte{5, 0, 3, 1, 1, 7, 0, 1, 7, 0, 1, 2, 0, 0, 0, 1, 0, 2, 2, 80, 10, 0, 1, 80, 3, 0})             // rejoin at te exactly
	f.Add([]byte{2, 0, 1, 0, 0, 7, 0, 0, 0, 0, 0, 1, 0, 1, 28, 3, 0, 0, 10, 0, 3, 8, 4, 0, 2, 16, 1, 0, 0, 0}) // peers and a crash
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0})                                  // no bytes, crash at the start
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1})                      // peers on one route cross no link
	f.Fuzz(func(t *testing.T, script []byte) {
		i := 0
		next := func() int {
			if i >= len(script) {
				return 0
			}
			i++
			return int(script[i-1])
		}
		shape := next()
		nLinks, workers := 1+shape%3, 2+shape/3%2

		// The links form a tree: each has a parent link (or the master)
		// among the links before it, and a worker's route is the path
		// from the master down to its link.
		parent := make([]int, nLinks)
		top := &model.Topology{}
		for l := 0; l < 3; l++ {
			p, c, lat := next(), next(), next()
			if l >= nLinks {
				continue
			}
			parent[l] = p%(l+1) - 1
			top.Links = append(top.Links, model.Link{
				Name:     fmt.Sprintf("l%d", l),
				Capacity: units.Rate(1+c%8) * 1e5,
				Latency:  units.Seconds(lat%4) * 0.25,
			})
		}
		for w := 0; w < 3; w++ {
			l := next() % nLinks
			if w >= workers {
				continue
			}
			var route []int
			for ; l >= 0; l = parent[l] {
				route = append(route, l)
			}
			slices.Reverse(route)
			top.Routes = append(top.Routes, route)
		}
		p := testPlatform(workers)
		p.Topology = top

		crashAt := make([]float64, workers)
		for w := range crashAt {
			crashAt[w] = math.Inf(1)
		}
		cfg := Config{Seed: 1}
		if on, at := next(), next(); on%2 == 1 {
			w := on / 2 % workers
			crashAt[w] = float64(at) * 0.0625
			cfg.Faults = &FaultPlan{Faults: []WorkerFault{{Worker: w, Kind: FaultCrash, At: crashAt[w]}}}
		}
		b, err := New(p, testApp(0), cfg)
		if err != nil {
			t.Fatal(err)
		}

		caps := make([]float64, nLinks)
		for l, link := range top.Links {
			caps[l] = float64(link.Capacity)
		}
		ops := make([]refFlow, 1+next()%4)
		ends := make([]float64, len(ops))
		errs := make([]error, len(ops))
		for k := range ops {
			kind, start, hi, lo := next(), next(), next(), next()
			to := kind / 2 % workers
			from := -1
			route := top.Route(to)
			if kind%2 == 1 {
				from = (to + 1 + kind/8%(workers-1)) % workers
				route = top.AppendPeerRoute(nil, from, to)
			}
			op := refFlow{
				start: float64(start) * 0.125,
				bytes: float64(hi<<8|lo) * 100,
				route: route,
				crash: crashAt[to],
			}
			for _, l := range route {
				op.lat += float64(top.Links[l].Latency)
			}
			ops[k] = op
			b.AfterFunc(op.start, func(uint64) {
				done := func(_ uint64, _, end float64, err error) { ends[k], errs[k] = end, err }
				if from < 0 {
					b.TransferOp(to, op.bytes, 0, done)
				} else {
					b.PeerTransferOp(from, to, op.bytes, 0, done)
				}
			})
		}
		b.Run()

		for k, want := range refLinkFlows(caps, ops) {
			if math.Abs(ends[k]-want.at) > 1e-9*max(1, math.Abs(want.at)) {
				t.Errorf("op %d (%+v) ended at %v, reference %v", k, ops[k], ends[k], want.at)
			}
			if failed := errs[k] != nil; !want.tie && (failed != want.failed || (failed && !errors.Is(errs[k], ErrWorkerDown))) {
				t.Errorf("op %d (%+v) ended with %v, reference failed: %v", k, ops[k], errs[k], want.failed)
			}
		}
	})
}

// refFlow is one transfer of the reference fluid simulator.
type refFlow struct {
	start, lat, bytes float64
	route             []int   // link indices
	crash             float64 // the destination's crash instant, +Inf without one
}

// refEnd is how the reference ends a flow: at at, failed by the crash
// or not. tie marks a flow that drains within 1e-9 relative of its
// crash instant, where rounding decides whether the crash cuts it.
type refEnd struct {
	at          float64
	failed, tie bool
}

// refLinkFlows is the reference for linkNet, written from DESIGN's
// rules with no event queue and no solo path. A flow on a worker that
// is already down fails at its start; one whose latency phase outlasts
// the crash fails at the crash instant; one with no bytes ends when its
// latency phase does. The rest join the pool at start + lat. In the
// pool a flow's rate is the minimum over its route of capacity / flows
// on the link, the progress made at the old rates is banked at every
// membership change, and a flow ends when it drains or, failing, at a
// crash instant that comes first.
func refLinkFlows(caps []float64, flows []refFlow) []refEnd {
	const (
		waiting = iota
		pooled
		done
	)
	n := len(flows)
	ends := make([]refEnd, n)
	state := make([]int, n)
	rem, rate := make([]float64, n), make([]float64, n)
	for i, f := range flows {
		te := f.start + f.lat
		switch {
		case f.start >= f.crash:
			ends[i], state[i] = refEnd{at: f.start, failed: true}, done
		case te > f.crash:
			ends[i], state[i] = refEnd{at: f.crash, failed: true}, done
		case f.bytes <= 0:
			ends[i], state[i] = refEnd{at: te}, done
		default:
			rem[i] = f.bytes
		}
	}
	active := make([]int, len(caps))
	now := 0.0
	for {
		next := math.Inf(1)
		for i, f := range flows {
			switch state[i] {
			case waiting:
				next = min(next, f.start+f.lat)
			case pooled:
				rate[i] = math.Inf(1)
				for _, l := range f.route {
					rate[i] = min(rate[i], caps[l]/float64(active[l]))
				}
				next = min(next, now+rem[i]/rate[i], f.crash)
			}
		}
		if math.IsInf(next, 1) {
			return ends
		}
		for i, f := range flows {
			if state[i] != pooled {
				continue
			}
			drain := now + rem[i]/rate[i]
			if next > now {
				rem[i] = max(0, rem[i]-rate[i]*(next-now))
			}
			if drain <= next || f.crash <= next {
				tie := math.Abs(drain-f.crash) <= 1e-9*max(1, f.crash)
				ends[i], state[i] = refEnd{at: next, failed: drain > next, tie: tie}, done
				for _, l := range f.route {
					active[l]--
				}
			}
		}
		for i, f := range flows {
			if state[i] == waiting && f.start+f.lat == next {
				state[i] = pooled
				for _, l := range f.route {
					active[l]++
				}
			}
		}
		now = next
	}
}
