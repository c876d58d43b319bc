package dls

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewKnownNames(t *testing.T) {
	for _, name := range Names() {
		alg, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if alg.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, alg.Name())
		}
	}
}

func TestNewAliases(t *testing.T) {
	cases := map[string]string{
		"factoring":          "wf",
		"weighted-factoring": "wf",
		"FIXED-RUMR":         "fixed-rumr",
		"fixedrumr":          "fixed-rumr",
		"oneround":           "one-round",
		"UMR":                "umr",
		"simple":             "simple-1",
		" simple-3 ":         "simple-3",
	}
	for in, want := range cases {
		alg, err := New(in)
		if err != nil {
			t.Errorf("New(%q): %v", in, err)
			continue
		}
		if alg.Name() != want {
			t.Errorf("New(%q).Name() = %q, want %q", in, alg.Name(), want)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	for _, bad := range []string{"", "guided", "simple-0", "simple-x", "rum", "mi-", "mi-0"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

func TestNewErrorListsKnownNames(t *testing.T) {
	_, err := New("nope")
	if err == nil || !strings.Contains(err.Error(), "umr") {
		t.Errorf("error %v does not list known algorithms", err)
	}
}

func TestNewReturnsFreshInstances(t *testing.T) {
	a, _ := New("umr")
	b, _ := New("umr")
	if a == b {
		t.Error("New returned a shared instance")
	}
}

// TestPaperSetMatchesFiguresOrder checks the set's order and that each
// planner starts out as its constructor builds it.
func TestPaperSetMatchesFiguresOrder(t *testing.T) {
	want := []string{"simple-1", "simple-5", "umr", "wf", "rumr", "fixed-rumr"}
	built := []Algorithm{NewSimple(1), NewSimple(5), NewUMR(), NewWeightedFactoring(), NewRUMR(), NewFixedRUMR()}
	set := PaperSet()
	if len(set) != len(want) {
		t.Fatalf("PaperSet has %d algorithms, want %d", len(set), len(want))
	}
	for i, alg := range set {
		if alg.Name() != want[i] {
			t.Errorf("PaperSet[%d] = %q, want %q", i, alg.Name(), want[i])
		}
		if !reflect.DeepEqual(alg, built[i]) {
			t.Errorf("PaperSet[%d] = %+v, want %+v as its constructor builds it", i, alg, built[i])
		}
	}
}

// TestPaperSetsShareNoPlanner checks that the one block a PaperSet call
// allocates is its own: running every planner of one set (plan,
// dispatch, observe) leaves a second set equal to a fresh one, and no
// planner of one set is a planner of the other. It then runs the six
// planners of another set on six goroutines at once, as the parallel
// runner may, so that the race detector sees neighbours in one block.
func TestPaperSetsShareNoPlanner(t *testing.T) {
	used, kept, fresh := PaperSet(), PaperSet(), PaperSet()
	for _, alg := range used {
		f := newFakeEngine(das2Estimates(8), 24000, 10)
		if err := f.run(alg); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !nearly(f.completed, 24000, 1e-9) {
			t.Fatalf("%s completed %v of 24000", alg.Name(), f.completed)
		}
	}
	for i, alg := range kept {
		if slices.Contains(used, alg) {
			t.Errorf("%s is in both sets", alg.Name())
		}
		if !reflect.DeepEqual(alg, fresh[i]) {
			t.Errorf("%s changed while the other set's planners ran:\n%+v\nwant %+v", alg.Name(), alg, fresh[i])
		}
	}

	var wg sync.WaitGroup
	for _, alg := range PaperSet() {
		wg.Add(1)
		go func(alg Algorithm) {
			defer wg.Done()
			f := newFakeEngine(das2Estimates(8), 24000, 10)
			if err := f.run(alg); err != nil {
				t.Errorf("%s: %v", alg.Name(), err)
			}
		}(alg)
	}
	wg.Wait()
}

func TestSimpleNRoundTripProperty(t *testing.T) {
	f := func(n uint8) bool {
		k := int(n%50) + 1
		alg, err := New(NewSimple(k).Name())
		if err != nil {
			return false
		}
		s, ok := alg.(*Simple)
		return ok && s.N == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
