// Topology generalizes the platform's network from "one serialized
// master uplink" to a first-class link graph: named links with a
// capacity and a latency, and per-worker routes (ordered link paths from
// the master). The grid backend turns a topology into a fluid
// contention model — concurrent transfers crossing a shared link split
// its capacity fairly — while a nil Topology keeps the legacy
// single-uplink model byte-for-byte.
//
// Routes are tree paths rooted at the master (uplink first, access link
// last). That shape is what grid platforms look like — a master uplink,
// a shared backbone, per-cluster switches, per-worker access links — and
// it gives peer routes for free: the worker-to-worker path is the
// symmetric difference of the two master routes (everything past their
// longest common prefix), which is what redistribution transfers use.
package model

import (
	"fmt"

	"apstdv/internal/errcode"
	"apstdv/internal/units"
)

// ErrInvalidTopology marks a link graph rejected by validation.
// errors.Is(err, model.ErrInvalidTopology) works locally and — via the
// errcode marker — across string-only transports.
var ErrInvalidTopology = errcode.New("bad_topology", "model: invalid topology")

// Link is one named network resource: a capacity shared fairly among the
// transfers crossing it, plus a fixed per-transfer latency contribution.
type Link struct {
	// Name labels the link in events and metrics ("uplink", "sw-das2").
	Name string
	// Capacity is the link's data rate in bytes/s. Concurrent transfers
	// traversing the link share it fairly (each of n flows gets
	// Capacity/n unless bottlenecked elsewhere on its route).
	Capacity units.Rate
	// Latency is the link's contribution to a transfer's fixed start-up
	// cost; a route's latency is the sum over its links.
	Latency units.Seconds
}

// Topology is a link graph over a platform: the links, and for each
// worker the ordered master→worker link path. Construct with
// NewTopology (builder) or as a literal; Validate before use.
type Topology struct {
	// Links holds the link table; routes index into it.
	Links []Link
	// Routes[w] is worker w's master→worker path as link indices,
	// uplink first. Routes must form a tree rooted at the master: two
	// routes that share a link share the whole prefix up to it.
	Routes [][]int
}

// Validate checks the topology against a worker count: one non-empty
// route per worker, in-range link indices, no repeated link within a
// route, unique non-empty link names, positive capacities, non-negative
// latencies, and tree-shaped routes (shared links only in shared
// prefixes). All errors wrap ErrInvalidTopology.
func (t *Topology) Validate(workers int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidTopology, fmt.Sprintf(format, args...))
	}
	if len(t.Links) == 0 {
		return fail("no links")
	}
	names := make(map[string]bool, len(t.Links))
	for i, l := range t.Links {
		if l.Name == "" {
			return fail("link %d has no name", i)
		}
		if names[l.Name] {
			return fail("duplicate link name %q", l.Name)
		}
		names[l.Name] = true
		if l.Capacity <= 0 {
			return fail("link %q has non-positive capacity %g", l.Name, float64(l.Capacity))
		}
		if l.Latency < 0 {
			return fail("link %q has negative latency %g", l.Name, float64(l.Latency))
		}
	}
	if len(t.Routes) != workers {
		return fail("%d routes for %d workers", len(t.Routes), workers)
	}
	for w, route := range t.Routes {
		if len(route) == 0 {
			return fail("worker %d has no route", w)
		}
		seen := make(map[int]bool, len(route))
		for _, li := range route {
			if li < 0 || li >= len(t.Links) {
				return fail("worker %d route references link %d (have %d links)", w, li, len(t.Links))
			}
			if seen[li] {
				return fail("worker %d route crosses link %q twice", w, t.Links[li].Name)
			}
			seen[li] = true
		}
	}
	// Tree check: any link shared by two routes must sit at the same
	// depth with an identical prefix above it, i.e. shared links appear
	// only in the common prefix.
	for a := 0; a < workers; a++ {
		for b := a + 1; b < workers; b++ {
			ra, rb := t.Routes[a], t.Routes[b]
			p := commonPrefix(ra, rb)
			for _, li := range ra[p:] {
				for _, lj := range rb[p:] {
					if li == lj {
						return fail("routes of workers %d and %d share link %q outside their common prefix (routes must form a tree)", a, b, t.Links[li].Name)
					}
				}
			}
		}
	}
	return nil
}

// Route returns worker w's master→worker link path.
func (t *Topology) Route(w int) []int { return t.Routes[w] }

// AppendPeerRoute appends to dst the link path of a direct
// worker-to-worker transfer from a to b and returns the extended slice:
// both master routes past their longest common prefix (the tree
// symmetric difference). Same-cluster peers skip the uplink and any
// shared trunk; the master is never traversed. The a-side links come
// first (leaf-to-branch order is irrelevant to the fluid model; only
// membership matters). Appending lets a caller keep one buffer per
// transfer instead of allocating a route each time.
func (t *Topology) AppendPeerRoute(dst []int, a, b int) []int {
	ra, rb := t.Routes[a], t.Routes[b]
	p := commonPrefix(ra, rb)
	dst = append(dst, ra[p:]...)
	return append(dst, rb[p:]...)
}

// commonPrefix returns the length of the longest common prefix of two
// routes.
func commonPrefix(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TopologyBuilder assembles a Topology from named links and per-worker
// routes. Errors are sticky: the first mistake is reported by Build and
// later calls are no-ops, so call chains stay unconditional.
type TopologyBuilder struct {
	t     Topology
	index map[string]int
	err   error
}

// NewTopology starts a topology builder:
//
//	top, err := model.NewTopology().
//		Link("uplink", 1*units.MBps, 0.5).
//		Link("sw-a", 92e3, 0.2).
//		Route(0, "uplink", "sw-a").
//		Route(1, "uplink", "sw-a").
//		Build(2)
func NewTopology() *TopologyBuilder {
	return &TopologyBuilder{index: make(map[string]int)}
}

// Link declares a named link. Declaration order fixes link indices (and
// thus metric/event ordering).
func (b *TopologyBuilder) Link(name string, capacity units.Rate, latency units.Seconds) *TopologyBuilder {
	if b.err != nil {
		return b
	}
	if _, dup := b.index[name]; dup {
		b.err = fmt.Errorf("%w: duplicate link name %q", ErrInvalidTopology, name)
		return b
	}
	b.index[name] = len(b.t.Links)
	b.t.Links = append(b.t.Links, Link{Name: name, Capacity: capacity, Latency: latency})
	return b
}

// Route declares worker w's master→worker path by link names, uplink
// first. Each worker must be routed exactly once.
func (b *TopologyBuilder) Route(w int, links ...string) *TopologyBuilder {
	if b.err != nil {
		return b
	}
	if w < 0 {
		b.err = fmt.Errorf("%w: route for negative worker %d", ErrInvalidTopology, w)
		return b
	}
	for len(b.t.Routes) <= w {
		b.t.Routes = append(b.t.Routes, nil)
	}
	if b.t.Routes[w] != nil {
		b.err = fmt.Errorf("%w: worker %d routed twice", ErrInvalidTopology, w)
		return b
	}
	route := make([]int, 0, len(links))
	for _, name := range links {
		li, ok := b.index[name]
		if !ok {
			b.err = fmt.Errorf("%w: route for worker %d references undeclared link %q", ErrInvalidTopology, w, name)
			return b
		}
		route = append(route, li)
	}
	if len(route) == 0 {
		// Mark as routed (non-nil) so Validate reports "no route" rather
		// than a double-route slipping through as nil.
		route = []int{}
	}
	b.t.Routes[w] = route
	return b
}

// Build finalizes and validates the topology for the given worker count.
func (b *TopologyBuilder) Build(workers int) (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := b.t
	if err := t.Validate(workers); err != nil {
		return nil, err
	}
	return &t, nil
}
