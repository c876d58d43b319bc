package sim

import (
	"container/heap"
	"slices"
	"testing"
	"time"

	"apstdv/internal/rng"
	"apstdv/internal/units"
)

// --- Reference schedule ----------------------------------------------------

// refSchedule is the straightforward container/heap event queue the
// indexed arena heap replaced. The differential test drives it and the
// Engine with one script and demands identical firing sequences; any
// divergence in (time, order) is a heap bug.
type refSchedule struct {
	h         refHeap
	seq       uint64
	cancelled map[uint64]bool // lazy tombstones, skipped at pop
	popped    map[uint64]bool // fired or discarded events; cancelling them is a no-op
}

type refEvent struct {
	at  units.Seconds
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func newRefSchedule() *refSchedule {
	return &refSchedule{cancelled: make(map[uint64]bool), popped: make(map[uint64]bool)}
}

func (r *refSchedule) schedule(at units.Seconds, id int) uint64 {
	seq := r.seq
	r.seq++
	heap.Push(&r.h, refEvent{at: at, seq: seq, id: id})
	return seq
}

// cancel mirrors Handle.Cancel: cancelling a fired event is a no-op.
func (r *refSchedule) cancel(seq uint64) {
	if !r.popped[seq] {
		r.cancelled[seq] = true
	}
}

// pending counts the events still scheduled.
func (r *refSchedule) pending() int { return len(r.h) - len(r.cancelled) }

// pop returns the next live event, or ok=false when drained. Cancelled
// events on the way are dropped.
func (r *refSchedule) pop() (refEvent, bool) {
	for r.h.Len() > 0 {
		ev := heap.Pop(&r.h).(refEvent)
		r.popped[ev.seq] = true
		if r.cancelled[ev.seq] {
			delete(r.cancelled, ev.seq)
			continue
		}
		return ev, true
	}
	return refEvent{}, false
}

// --- Differential test -----------------------------------------------------

type firing struct {
	at units.Seconds
	id int
}

// TestHeapMatchesReferenceSchedule drives the Engine and the
// container/heap reference with the same randomized schedule / cancel /
// re-key / step script and requires byte-identical firing sequences. A
// re-key (MoveArg) is modelled in the reference as a cancel followed by
// a schedule. Every callback runs a few more script operations from
// inside Step — scheduling none, one or many events, cancelling and
// re-keying — so the hole Step leaves at the root is filled, left
// empty, and sifted around. Ties (many events at
// one timestamp) and heavy cancellation are exercised on purpose; the
// arena invariant and Pending are checked after every mutation, inside
// callbacks too.
func TestHeapMatchesReferenceSchedule(t *testing.T) {
	type livePair struct {
		h   Handle
		seq uint64
	}
	for _, seed := range []uint64{1, 7, 42, 1234} {
		src := rng.Stream(seed, "sim/heap-differential")
		e := New()
		ref := newRefSchedule()
		var live []livePair
		var gotE, gotR []firing
		nextID := 0
		draining := false
		scheduled := 0
		holes := [3]int{} // callbacks that scheduled none, one, many events

		check := func(where string) {
			t.Helper()
			e.checkInvariant()
			if e.Pending() != ref.pending() {
				t.Fatalf("seed %d %s: Pending = %d, reference has %d", seed, where, e.Pending(), ref.pending())
			}
		}
		var onFire func(id int)
		fire := func(arg uint64) { onFire(int(arg)) }
		schedule := func() {
			scheduled++
			at := e.Now() + units.Seconds(src.Intn(16)) // deliberate collisions
			id := nextID
			nextID++
			h := e.AtArg(at, fire, uint64(id))
			live = append(live, livePair{h, ref.schedule(at, id)})
		}
		// mutate applies one non-step operation: k < 5 schedules, then
		// cancel and re-key a random handle (which may have fired).
		mutate := func(k int) {
			if k < 5 {
				schedule()
				return
			}
			if len(live) == 0 {
				return
			}
			i := src.Intn(len(live))
			switch {
			case k < 8:
				live[i].h.Cancel()
				ref.cancel(live[i].seq)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				at := e.Now() + units.Seconds(src.Intn(16))
				id := nextID
				nextID++
				live[i].h = e.MoveArg(live[i].h, at, fire, uint64(id))
				ref.cancel(live[i].seq)
				live[i].seq = ref.schedule(at, id)
			}
		}
		onFire = func(id int) {
			gotE = append(gotE, firing{e.Now(), id})
			check("entering a callback")
			if draining {
				return
			}
			scheduled = 0
			for n := src.Intn(5); n > 0; n-- {
				mutate(src.Intn(10))
				check("inside a callback")
			}
			if scheduled > 0 && e.hole {
				t.Fatalf("seed %d: a callback scheduled %d events and left the hole empty", seed, scheduled)
			}
			holes[min(scheduled, 2)]++
		}
		stepBoth := func() {
			// The reference pops first: the callback the engine then fires
			// mirrors its operations into a reference that has already
			// retired the firing event, as the engine has.
			rev, ok := ref.pop()
			if ok {
				gotR = append(gotR, firing{rev.at, rev.id})
			}
			if fired := e.Step(); fired != ok {
				t.Fatalf("seed %d: engine fired=%v, reference fired=%v", seed, fired, ok)
			}
		}

		for op := 0; op < 4000; op++ {
			if k := src.Intn(12); k < 10 {
				mutate(k)
			} else {
				stepBoth()
			}
			check("between steps")
		}
		draining = true
		for e.Pending() > 0 {
			stepBoth()
		}
		check("drained")

		if len(gotE) != len(gotR) {
			t.Fatalf("seed %d: engine fired %d events, reference %d", seed, len(gotE), len(gotR))
		}
		for i := range gotE {
			if gotE[i] != gotR[i] {
				t.Fatalf("seed %d: firing %d diverged: engine %+v, reference %+v",
					seed, i, gotE[i], gotR[i])
			}
		}
		if holes[0] == 0 || holes[1] == 0 || holes[2] == 0 {
			t.Fatalf("seed %d: callbacks scheduling none/one/many events: %v; want each case", seed, holes)
		}
	}
}

// A callback may step the engine itself: the nested Step closes the
// outer event's hole before it fires the next event, and the outer
// callback's later schedules go through the ordinary insert.
func TestStepInsideCallback(t *testing.T) {
	e := New()
	var order []int
	at(e, 1, func() {
		order = append(order, 1)
		e.Step()
		e.checkInvariant()
		after(e, 0, func() { order = append(order, 4) })
		e.checkInvariant()
	})
	at(e, 2, func() { order = append(order, 2); after(e, 1, func() { order = append(order, 3) }) })
	e.Run()
	e.checkInvariant()
	if want := []int{1, 2, 4, 3}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", e.Pending())
	}
}

// Cancelling one fired-then-reused handle must not touch the slot's new
// occupant: generations fence stale handles.
func TestStaleHandleCancelAfterSlotReuse(t *testing.T) {
	e := New()
	h1 := at(e, 1, func() {})
	h1.Cancel() // slot released to the free list
	fired := false
	h2 := at(e, 2, func() { fired = true }) // reuses the slot
	h1.Cancel()                             // stale generation: must be a no-op
	e.Run()
	if !fired {
		t.Fatal("stale Cancel disarmed the slot's new occupant")
	}
	_ = h2
}

func TestHandleOfFiredEventGoesStale(t *testing.T) {
	e := New()
	h1 := at(e, 1, func() {})
	e.Run() // fires; slot released
	fired := false
	at(e, 2, func() { fired = true }) // reuses the slot
	h1.Cancel()                       // handle to the fired event: no-op
	e.Run()
	if !fired {
		t.Fatal("Cancel of a fired handle disarmed the slot's new occupant")
	}
}

func TestZeroHandleCancel(t *testing.T) {
	var h Handle
	h.Cancel() // must not panic
}

// --- Allocation discipline -------------------------------------------------

// The schedule/cancel steady state — arena slots recycled through the
// free list — must not allocate. This is the property that makes
// deadline arming free in the simulator.
func TestAtCancelSteadyStateAllocFree(t *testing.T) {
	e := New()
	fn := func(uint64) {}
	// Warm up: grow the arena, order, and free list to working size.
	var hs []Handle
	for i := 0; i < 64; i++ {
		hs = append(hs, e.AfterArg(1, fn, 0))
	}
	for _, h := range hs {
		h.Cancel()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h1 := e.AfterArg(1, fn, 0)
		h2 := e.AfterArg(2, fn, 0)
		h2.Cancel()
		h1.Cancel()
	})
	if allocs != 0 {
		t.Errorf("steady-state AtArg/Cancel allocated %.1f objects per round, want 0", allocs)
	}
}

// The schedule/fire steady state must not allocate either (the callback
// is the caller's business; here it is hoisted and reused).
func TestStepSteadyStateAllocFree(t *testing.T) {
	e := New()
	fn := func(uint64) {}
	e.AtArg(0, fn, 0)
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterArg(1, fn, 0)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state AfterArg/Step allocated %.1f objects per round, want 0", allocs)
	}
}

// --- Pending cost ----------------------------------------------------------

// Pending must be O(1) — a length read — not a scan of the schedule.
// The regression guard compares its cost on a tiny heap against a heap
// three orders of magnitude larger; a linear Pending fails by ~1000x,
// so the 20x bound has huge slack against timer noise.
func TestPendingIsObservablyO1(t *testing.T) {
	cost := func(n int) time.Duration {
		e := New()
		fn := func() {}
		for i := 0; i < n; i++ {
			after(e, units.Seconds(i), fn)
		}
		const reps = 200000
		start := time.Now()
		s := 0
		for i := 0; i < reps; i++ {
			s += e.Pending()
		}
		if s != reps*n {
			t.Fatalf("Pending = %d, want %d", s/reps, n)
		}
		return time.Since(start)
	}
	small := cost(64)
	big := cost(64 * 1024)
	if big > small*20 {
		t.Errorf("Pending on 64Ki-event heap cost %v vs %v on 64 events — looks like a scan", big, small)
	}
}
