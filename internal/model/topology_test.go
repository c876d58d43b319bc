package model

import (
	"errors"
	"testing"
)

// treeTopology builds the canonical two-cluster test tree:
//
//	uplink → {sw-a → {leaf-0, leaf-1}, sw-b → {leaf-2}}
func treeTopology(t *testing.T) *Topology {
	t.Helper()
	top, err := NewTopology().
		Link("uplink", 1e6, 1).
		Link("sw-a", 5e5, 0.5).
		Link("sw-b", 5e5, 0.5).
		Link("leaf-0", 1e5, 0.25).
		Link("leaf-1", 1e5, 0.25).
		Link("leaf-2", 1e5, 0.25).
		Route(0, "uplink", "sw-a", "leaf-0").
		Route(1, "uplink", "sw-a", "leaf-1").
		Route(2, "uplink", "sw-b", "leaf-2").
		Build(3)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestTopologyBuilderRoutesAndLatency(t *testing.T) {
	top := treeTopology(t)
	if got := top.Route(1); len(got) != 3 || top.Links[got[0]].Name != "uplink" || top.Links[got[2]].Name != "leaf-1" {
		t.Errorf("route(1) = %v", got)
	}
	var lat float64
	for _, li := range top.Route(0) {
		lat += float64(top.Links[li].Latency)
	}
	if lat != 1.75 {
		t.Errorf("route latency = %g, want 1.75", lat)
	}
}

// TestPeerRouteSkipsSharedPrefix pins the redistribution property: a
// peer path is the symmetric difference of the two master routes, so
// same-cluster peers never touch the uplink or their shared switch, and
// no peer path ever crosses the uplink.
func TestPeerRouteSkipsSharedPrefix(t *testing.T) {
	top := treeTopology(t)
	names := func(route []int) []string {
		var out []string
		for _, li := range route {
			out = append(out, top.Links[li].Name)
		}
		return out
	}
	same := names(top.AppendPeerRoute(nil, 0, 1))
	if len(same) != 2 || same[0] != "leaf-0" || same[1] != "leaf-1" {
		t.Errorf("same-cluster peer route = %v, want [leaf-0 leaf-1]", same)
	}
	cross := names(top.AppendPeerRoute(nil, 0, 2))
	want := []string{"sw-a", "leaf-0", "sw-b", "leaf-2"}
	if len(cross) != len(want) {
		t.Fatalf("cross-cluster peer route = %v, want %v", cross, want)
	}
	for i := range want {
		if cross[i] != want[i] {
			t.Fatalf("cross-cluster peer route = %v, want %v", cross, want)
		}
	}
	if self := top.AppendPeerRoute(nil, 1, 1); len(self) != 0 {
		t.Errorf("self peer route = %v, want empty", names(self))
	}
	// The route is appended after what dst already holds.
	if got := names(top.AppendPeerRoute([]int{0}, 0, 1)); len(got) != 3 || got[0] != top.Links[0].Name || got[2] != "leaf-1" {
		t.Errorf("peer route appended to a one-link prefix = %v", got)
	}
}

func TestTopologyValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		top     Topology
		workers int
	}{
		{"no links", Topology{Routes: [][]int{{0}}}, 0},
		{"unnamed link", Topology{Links: []Link{{Capacity: 1}}, Routes: [][]int{{0}}}, 0},
		{"duplicate name", Topology{
			Links:  []Link{{Name: "l", Capacity: 1}, {Name: "l", Capacity: 1}},
			Routes: [][]int{{0}},
		}, 0},
		{"zero capacity", Topology{Links: []Link{{Name: "l"}}, Routes: [][]int{{0}}}, 0},
		{"negative latency", Topology{
			Links:  []Link{{Name: "l", Capacity: 1, Latency: -1}},
			Routes: [][]int{{0}},
		}, 0},
		{"route count mismatch", Topology{Links: []Link{{Name: "l", Capacity: 1}}}, 1},
		{"empty route", Topology{Links: []Link{{Name: "l", Capacity: 1}}, Routes: [][]int{{}}}, 0},
		{"out-of-range link", Topology{Links: []Link{{Name: "l", Capacity: 1}}, Routes: [][]int{{3}}}, 0},
		{"repeated link in route", Topology{
			Links:  []Link{{Name: "l", Capacity: 1}},
			Routes: [][]int{{0, 0}},
		}, 0},
		{"non-tree routes", Topology{
			// Workers 0 and 1 share link 1 only *after* diverging at the
			// first hop — a cycle, not a tree.
			Links:  []Link{{Name: "a", Capacity: 1}, {Name: "b", Capacity: 1}, {Name: "c", Capacity: 1}},
			Routes: [][]int{{0, 1}, {2, 1}},
		}, 0},
	}
	for _, tc := range cases {
		workers := tc.workers
		if workers == 0 {
			workers = len(tc.top.Routes)
		}
		err := tc.top.Validate(workers)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidTopology) {
			t.Errorf("%s: error %v does not wrap ErrInvalidTopology", tc.name, err)
		}
	}
}

func TestTopologyBuilderStickyErrors(t *testing.T) {
	_, err := NewTopology().
		Link("uplink", 1e6, 0).
		Route(0, "nope").
		Route(0, "uplink"). // would be a double-route, but the first error sticks
		Build(1)
	if err == nil || !errors.Is(err, ErrInvalidTopology) {
		t.Fatalf("err = %v, want ErrInvalidTopology", err)
	}
	_, err = NewTopology().
		Link("uplink", 1e6, 0).
		Route(0, "uplink").
		Route(0, "uplink").
		Build(1)
	if err == nil {
		t.Fatal("double-routed worker accepted")
	}
}

// TestPlatformValidateTopologySize pins that a link graph sized for the
// wrong worker count fails platform validation with the typed topology
// error.
func TestPlatformValidateTopologySize(t *testing.T) {
	top, err := NewTopology().
		Link("uplink", 1e6, 0).
		Link("leaf-a", 1e5, 0.1).
		Link("leaf-b", 1e5, 0.1).
		Route(0, "uplink", "leaf-a").
		Route(1, "uplink", "leaf-b").
		Build(2)
	if err != nil {
		t.Fatal(err)
	}
	p := &Platform{Name: "t", Topology: top, Workers: []Worker{
		{Name: "a", Cluster: "c", Speed: 1, Bandwidth: 1e5},
	}}
	if err := p.Validate(); !errors.Is(err, ErrInvalidTopology) {
		t.Errorf("mis-sized topology: err = %v, want ErrInvalidTopology", err)
	}
}
