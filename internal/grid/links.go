package grid

// This file is the link-graph network model: when the platform carries a
// model.Topology, transfers stop being fixed-duration star-link events
// and become fluid flows over the topology's links. Concurrent flows
// crossing a shared link split its capacity fairly — a flow's rate is
// min over its route of capacity/activeFlows — and every flow start or
// finish preemptively re-scales the others through the fluid record
// MultiWorld's compute stations use for CPU shares: bank the progress
// made at the old rate, recompute rates, re-key completions. A nil
// topology never constructs a linkNet, so the star model stays
// byte-identical to the pinned goldens.
//
// A flow costs two events, the end of its latency phase and its
// completion, except a master transfer alone on the net: it schedules
// only its completion, at the same float (see start).
//
// Peer transfers (worker-to-worker redistribution) ride the same fluid
// model over model.Topology.AppendPeerRoute. Semantics: the source worker's
// chunk data is staged on its *site* storage, so a crashed source does
// not kill a peer fetch; the destination crashing truncates it, like
// any transfer to that worker.

import (
	"math"

	"apstdv/internal/sim"
	"apstdv/internal/units"
)

// fluid is one member of a fluid-rate resource: rem units of work still
// to do, progressing at rate since last, finishing at the event end. A
// member's rate changes only at a membership change, which banks the
// progress made at the old rate before setting the new one and
// re-making end. Link flows (bytes at a link share) and MultiWorld's
// compute stations (seconds of work at a CPU share) both embed it.
type fluid struct {
	rem  float64
	rate float64
	last units.Seconds
	end  sim.Handle
}

// bank subtracts the progress made at rate since last, floored at zero,
// and moves last to now. Banking at an unchanged rate is not a no-op in
// floating point (it can move the end by an ulp), so whether a user
// banks members whose rate did not change is part of its arithmetic:
// linkNet.rescale banks every active flow, computeStation.revise skips
// an unchanged share. Banking when no time has passed is a no-op: a
// peer flow between workers on one route crosses no link and runs at
// an infinite rate, where Inf × 0 would make rem NaN.
func (f *fluid) bank(now units.Seconds) {
	if now == f.last {
		return
	}
	f.rem -= f.rate * float64(now-f.last)
	if f.rem < 0 {
		f.rem = 0
	}
	f.last = now
}

// linkFlow is one in-progress transfer over a link route: a fluid member
// whose rem is bytes. Flows live in a slot arena (flows + free list) so
// starting one allocates nothing once the arena has grown.
type linkFlow struct {
	fluid
	// route is the flow's own buffer, filled from the destination's
	// master route or from the peer route; slot reuse and reset keep its
	// storage, so starting a flow allocates nothing once it has grown.
	route  []int
	opSlot int32 // gridOp slot to complete; its w is the worker a crash cuts
	active bool  // joined the fluid pool (latency phase done)
}

// masterRoute is a worker's master route priced once: its latency (the
// link latencies summed in route order, as start sums them) and its
// bottleneck capacity (the rate rescale gives a flow alone on the net).
type masterRoute struct {
	lat, rate float64
}

// linkNet is the fluid contention state over one topology.
type linkNet struct {
	b      *Backend
	active []int // per-link count of flows crossing it
	routes []masterRoute

	flows    []linkFlow
	flowFree []int32
	// solo is the slot of the flow that took the one-event path, -1
	// when there is none (see start).
	solo int32

	enterFn  func(uint64) // latency phase done: join the fluid pool
	finishFn func(uint64) // flow completion (or crash truncation)
}

// newLinkNet builds the contention state for the backend's topology.
func newLinkNet(b *Backend) *linkNet {
	top := b.platform.Topology
	n := &linkNet{b: b, active: make([]int, len(top.Links)), solo: -1}
	for w := range top.Routes {
		r := masterRoute{rate: math.Inf(1)}
		for _, li := range top.Route(w) {
			r.lat += float64(top.Links[li].Latency)
			r.rate = min(r.rate, float64(top.Links[li].Capacity))
		}
		n.routes = append(n.routes, r)
	}
	n.enterFn = n.enter
	n.finishFn = n.finish
	return n
}

// reset rewinds the net for a fresh run, clearing all occupancy and
// flow state. Reuses every slice, route buffers included.
func (n *linkNet) reset() {
	n.solo = -1
	for i := range n.active {
		n.active[i] = 0
	}
	for i := range n.flows {
		n.clearFlow(int32(i))
	}
	n.flows = n.flows[:0]
	n.flowFree = n.flowFree[:0]
}

// allocFlow reserves a flow slot. A slot past the end that an earlier
// run used is taken back as reset left it, route buffer and all.
func (n *linkNet) allocFlow() int32 {
	if l := len(n.flowFree); l > 0 {
		slot := n.flowFree[l-1]
		n.flowFree = n.flowFree[:l-1]
		return slot
	}
	if l := len(n.flows); l < cap(n.flows) {
		n.flows = n.flows[:l+1]
	} else {
		n.flows = append(n.flows, linkFlow{})
	}
	return int32(len(n.flows) - 1)
}

// clearFlow zeroes a slot except for its route buffer's storage.
func (n *linkNet) clearFlow(slot int32) {
	f := &n.flows[slot]
	*f = linkFlow{route: f.route[:0]}
}

// freeFlow returns a slot, dropping references.
func (n *linkNet) freeFlow(slot int32) {
	n.clearFlow(slot)
	n.flowFree = append(n.flowFree, slot)
}

// start launches op opSlot's transfer of bytes to the op's worker, over
// its master route, or over the peer route from worker from when from
// is not negative: a fixed latency phase (the summed link latencies),
// then a fluid flow through the shared links.
//
// The two-event path is needed only by a flow that can change another
// flow's rate. A master transfer that starts on an empty net cannot, so
// it schedules just its completion, at te + bytes/rate with te = now +
// the route's latency and rate its bottleneck capacity: the floats
// enter and rescale would compute. It keeps the two events when its
// worker's crash would cut it (or is already past), because a cut end
// ties with the worker's other ops at the crash instant, where sequence
// numbers order them.
func (n *linkNet) start(opSlot int32, bytes float64, from int) {
	b := n.b
	top := b.platform.Topology
	o := &b.ops[opSlot]
	if n.solo >= 0 {
		// The solo flow and this one may share a link from now on.
		n.unsolo()
	} else if from < 0 && len(n.flows) == len(n.flowFree) {
		// Alone on the net: this flow can change no other flow's rate.
		r := n.routes[o.w]
		te := o.start + units.Seconds(r.lat)
		end := float64(te) + bytes/r.rate
		if b.faults == nil || b.faults[o.w].crashAt >= end && b.faults[o.w].crashAt > float64(o.start) {
			slot := n.allocFlow()
			f := &n.flows[slot]
			f.rem, f.opSlot, f.last = bytes, opSlot, te
			f.end = b.eng.AtArg(units.Seconds(end), n.finishFn, uint64(slot))
			n.solo = slot
			return
		}
	}
	slot := n.allocFlow()
	f := &n.flows[slot]
	if from < 0 {
		f.route = append(f.route, top.Route(int(o.w))...)
	} else {
		f.route = top.AppendPeerRoute(f.route, from, int(o.w))
	}
	lat := 0.0
	for _, li := range f.route {
		lat += float64(top.Links[li].Latency)
	}
	f.rem = bytes
	f.opSlot = opSlot
	delay, err := b.cut(int(o.w), o.start, lat)
	o.err = err
	b.eng.AfterArg(delay, n.enterFn, uint64(slot))
}

// unsolo puts the solo flow back on the two-event path as another flow
// starts. In its latency phase, its completion is re-keyed into the
// enter event at te (held in last). Past te, it joins the pool as enter
// would have left it at te: last = te, rate the route's bottleneck, and
// the completion already pending at the end rescale would have set.
func (n *linkNet) unsolo() {
	slot := n.solo
	n.solo = -1
	f := &n.flows[slot]
	w := n.b.ops[f.opSlot].w
	f.route = append(f.route, n.b.platform.Topology.Route(int(w))...)
	if n.b.eng.Now() <= f.last {
		n.b.eng.MoveArg(f.end, f.last, n.enterFn, uint64(slot))
		f.end = sim.Handle{}
		return
	}
	for _, li := range f.route {
		n.active[li]++
	}
	f.active = true
	f.rate = n.routes[w].rate
}

// enter ends a flow's latency phase: crash-truncated or zero-byte flows
// finish on the spot; the rest join the fluid pool and trigger a
// re-scale.
func (n *linkNet) enter(arg uint64) {
	slot := int32(arg)
	f := &n.flows[slot]
	if n.b.ops[f.opSlot].err != nil || f.rem <= 0 {
		n.complete(slot)
		return
	}
	for _, li := range f.route {
		n.active[li]++
	}
	f.active = true
	f.last = n.b.eng.Now()
	n.rescale(f.last)
}

// rescale re-derives every active flow's fair-share rate after a
// membership change: progress made at the old rate is banked, the new
// rate is min over the route of capacity/activeFlows, and the
// completion event is re-made. Flows are visited in ascending slot
// order, so the schedule — and with it the whole event stream — is a
// pure function of the run's inputs.
func (n *linkNet) rescale(now units.Seconds) {
	b := n.b
	links := b.platform.Topology.Links
	for i := range n.flows {
		f := &n.flows[i]
		if !f.active {
			continue
		}
		f.bank(now)
		rate := math.Inf(1)
		for _, li := range f.route {
			if r := float64(links[li].Capacity) / float64(n.active[li]); r < rate {
				rate = r
			}
		}
		f.rate = rate
		end := float64(now) + f.rem/rate
		o := &b.ops[f.opSlot]
		o.err = nil
		// A crash before the flow drains clamps its end to the crash
		// instant. This is not cut: now + (crashAt − now) need not equal
		// crashAt.
		if b.faults != nil {
			if crashAt := b.faults[o.w].crashAt; crashAt < end {
				end = crashAt
				o.err = b.crashErr(int(o.w))
			}
		}
		f.end = b.eng.MoveArg(f.end, units.Seconds(end), n.finishFn, uint64(i))
	}
}

// finish ends one flow — natural completion (rem drained) or crash
// truncation — releasing its links and re-scaling the survivors. The
// solo flow holds no links and leaves no survivors.
func (n *linkNet) finish(arg uint64) {
	slot := int32(arg)
	if slot == n.solo {
		n.solo = -1
		n.complete(slot)
		return
	}
	f := &n.flows[slot]
	for _, li := range f.route {
		n.active[li]--
	}
	f.active = false
	n.rescale(n.b.eng.Now())
	n.complete(slot)
}

// complete frees the flow slot and completes its op through
// transferFire.
func (n *linkNet) complete(slot int32) {
	opSlot := n.flows[slot].opSlot
	n.freeFlow(slot)
	n.b.transferFire(uint64(opSlot))
}

// PeerTransferOp moves bytes from worker `from`'s site directly to
// worker `to` — the redistribution path, never touching the master or
// its uplink. Under a topology the transfer is a fluid flow over
// model.Topology.AppendPeerRoute; on a flat platform it uses a direct
// star-model estimate (destination's latency, the slower endpoint's
// bandwidth) without occupying the serialized uplink. The data is
// staged on the source's site storage, so only the *destination*
// crashing fails the transfer. Completion reports through done exactly
// like TransferOp (engine.PeerBackend).
func (b *Backend) PeerTransferOp(from, to int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	slot := b.issue(to, op, done)
	if b.links != nil {
		b.links.start(slot, bytes, from)
		return
	}
	wf, wt := &b.platform.Workers[from], &b.platform.Workers[to]
	bw := min(float64(wf.Bandwidth), float64(wt.Bandwidth))
	b.fireAfter(slot, float64(wt.CommLatency)+bytes/bw)
}
