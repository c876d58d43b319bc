package sim

import (
	"testing"

	"apstdv/internal/rng"
	"apstdv/internal/units"
)

// Firing times must be exact — never rounded to a bucket edge — at
// every wheel level: sub-granule, level 0, level 1, level 2.
func TestTimersFireExactly(t *testing.T) {
	e := New()
	w := NewTimers(e, 4)
	delays := []units.Seconds{
		0, 0.5, 3.9, // exact path (d < granularity)
		4, 17.25, 255, // level 0 (4..256)
		256, 1000.125, 16383, // level 1 (256..16384)
		16384, 500000.5, // level 2
	}
	fired := make(map[units.Seconds]units.Seconds)
	for _, d := range delays {
		d := d
		w.After(d, func(TimerID) { fired[d] = e.Now() })
	}
	if got := w.Pending(); got != len(delays) {
		t.Fatalf("Pending = %d, want %d", got, len(delays))
	}
	e.Run()
	for _, d := range delays {
		at, ok := fired[d]
		if !ok {
			t.Errorf("timer for d=%v never fired", d)
		} else if at != d {
			t.Errorf("timer for d=%v fired at %v", d, at)
		}
	}
	if w.Pending() != 0 || e.Pending() != 0 {
		t.Errorf("Pending: timers %d, engine %d after Run, want 0, 0", w.Pending(), e.Pending())
	}
}

// A cancelled timer must never fire, and cancelling the last timer in a
// bucket must also release its engine boundary event.
func TestTimersCancel(t *testing.T) {
	e := New()
	w := NewTimers(e, 4)
	id := w.After(100, func(TimerID) { t.Error("cancelled timer fired") })
	if e.Pending() == 0 {
		t.Fatal("arming a timer scheduled no engine event")
	}
	w.Cancel(id)
	if w.Pending() != 0 {
		t.Errorf("Pending = %d after Cancel, want 0", w.Pending())
	}
	if e.Pending() != 0 {
		t.Errorf("engine still holds %d events after the bucket emptied", e.Pending())
	}
	e.Run()
}

// Cancelling one of several same-bucket timers must not disturb the
// others, and the survivors still fire exactly.
func TestTimersCancelOneOfBucket(t *testing.T) {
	e := New()
	w := NewTimers(e, 4)
	var fired []units.Seconds
	w.After(100, func(TimerID) { fired = append(fired, e.Now()) })
	id := w.After(101, func(TimerID) { t.Error("cancelled timer fired") })
	w.After(102, func(TimerID) { fired = append(fired, e.Now()) })
	w.Cancel(id)
	e.Run()
	if len(fired) != 2 || fired[0] != 100 || fired[1] != 102 {
		t.Errorf("fired = %v, want [100 102]", fired)
	}
}

// Stale ids — zero, double-cancel, cancel-after-fire, cancel after the
// slot was reused — are all no-ops.
func TestTimersStaleIDs(t *testing.T) {
	e := New()
	w := NewTimers(e, 4)
	w.Cancel(0) // zero id

	id1 := w.After(50, func(TimerID) { t.Error("cancelled timer fired") })
	w.Cancel(id1)
	w.Cancel(id1) // double cancel

	fired := false
	id2 := w.After(60, func(TimerID) { fired = true }) // reuses id1's slot
	w.Cancel(id1)                                      // stale: must not touch id2
	e.Run()
	if !fired {
		t.Fatal("stale Cancel disarmed the reused slot")
	}
	w.Cancel(id2) // cancel after fire
	if w.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", w.Pending())
	}
}

// The callback receives the id After returned, so one shared handler
// can fence stale wall-clock firings by comparison.
func TestTimersCallbackReceivesOwnID(t *testing.T) {
	e := New()
	w := NewTimers(e, 4)
	got := make(map[TimerID]bool)
	handler := func(id TimerID) { got[id] = true }
	ids := []TimerID{w.After(1, handler), w.After(40, handler), w.After(400, handler)}
	e.Run()
	for i, id := range ids {
		if !got[id] {
			t.Errorf("timer %d: callback never saw id %#x", i, id)
		}
	}
}

// Equal-deadline timers fire in arming order, even when cascading
// through shared buckets.
func TestTimersTiesFireInArmingOrder(t *testing.T) {
	e := New()
	w := NewTimers(e, 4)
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		w.After(300, func(TimerID) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("firing order = %v, want arming order", got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("fired %d of 8 timers", len(got))
	}
}

// Differential check against the plain engine: the same randomized
// arm/cancel script must produce the same firing sequence whether run
// through the wheel or scheduled directly.
func TestTimersMatchPlainEngine(t *testing.T) {
	type rec struct {
		at units.Seconds
		id int
	}
	run := func(seed uint64, useWheel bool) []rec {
		src := rng.Stream(seed, "sim/timers-differential")
		e := New()
		w := NewTimers(e, 4)
		var got []rec
		type armed struct {
			tid TimerID
			h   Handle
		}
		var live []armed
		nextID := 0
		var clock units.Seconds
		for op := 0; op < 2000; op++ {
			switch k := src.Intn(8); {
			case k < 4:
				// Mix of sub-granule, in-level, and cross-level delays.
				d := units.Seconds(src.Float64()) * units.Seconds(uint64(1)<<uint(src.Intn(12)))
				id := nextID
				nextID++
				if useWheel {
					tid := w.After(d, func(TimerID) { got = append(got, rec{e.Now(), id}) })
					live = append(live, armed{tid: tid})
				} else {
					h := after(e, d, func() { got = append(got, rec{e.Now(), id}) })
					live = append(live, armed{h: h})
				}
			case k < 6:
				if len(live) > 0 {
					j := src.Intn(len(live))
					if useWheel {
						w.Cancel(live[j].tid)
					} else {
						live[j].h.Cancel()
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			default:
				// Advance both runs to the same wall time. (Step counts would
				// diverge: the wheel spends engine events on bucket
				// boundaries, the plain engine does not.)
				clock += units.Seconds(src.Intn(64))
				for e.skipParked(); len(e.order) > 0 && e.order[0].at <= clock; e.skipParked() {
					e.Step()
				}
				e.now = clock
			}
		}
		e.Run()
		return got
	}
	for _, seed := range []uint64{3, 99, 2024} {
		wheel := run(seed, true)
		plain := run(seed, false)
		if len(wheel) != len(plain) {
			t.Fatalf("seed %d: wheel fired %d, plain engine %d", seed, len(wheel), len(plain))
		}
		for i := range wheel {
			if wheel[i] != plain[i] {
				t.Fatalf("seed %d: firing %d diverged: wheel %+v, plain %+v", seed, i, wheel[i], plain[i])
			}
		}
	}
}

// Arming and cancelling deadlines — the retry layer's steady state —
// must not allocate once the arenas are warm.
func TestTimersAfterCancelSteadyStateAllocFree(t *testing.T) {
	e := New()
	w := NewTimers(e, 4)
	fn := func(TimerID) {}
	var ids []TimerID
	for i := 0; i < 64; i++ {
		ids = append(ids, w.After(100, fn))
	}
	for _, id := range ids {
		w.Cancel(id)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id1 := w.After(50, fn)
		id2 := w.After(90, fn)
		w.Cancel(id2)
		w.Cancel(id1)
	})
	if allocs != 0 {
		t.Errorf("steady-state After/Cancel allocated %.1f objects per round, want 0", allocs)
	}
}

func TestTimersNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("After(-1, ...) did not panic")
		}
	}()
	e := New()
	w := NewTimers(e, 4)
	w.After(-1, func(TimerID) {})
}
