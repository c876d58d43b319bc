package sim

import (
	"slices"
	"testing"

	"apstdv/internal/rng"
	"apstdv/internal/units"
)

// Firing times must be exact, from zero delay to hundreds of thousands
// of seconds.
func TestTimersFireExactly(t *testing.T) {
	e := New()
	w := NewTimers(e, 0)
	delays := []units.Seconds{0, 0.5, 3.9, 4, 17.25, 255, 256, 1000.125, 16383, 16384, 500000.5}
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

// A cancelled timer must never fire, and its event must leave the
// engine's schedule with it.
func TestTimersCancel(t *testing.T) {
	e := New()
	w := NewTimers(e, 0)
	id := w.After(100, func(TimerID) { t.Error("cancelled timer fired") })
	if e.Pending() == 0 {
		t.Fatal("arming a timer scheduled no engine event")
	}
	w.Cancel(id)
	if w.Pending() != 0 {
		t.Errorf("Pending = %d after Cancel, want 0", w.Pending())
	}
	if e.Pending() != 0 {
		t.Errorf("engine still holds %d events after the only timer was cancelled", e.Pending())
	}
	e.Run()
}

// Cancelling one of several timers armed close together must not
// disturb the others, and the survivors still fire exactly.
func TestTimersCancelOneOfBucket(t *testing.T) {
	e := New()
	w := NewTimers(e, 0)
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
	w := NewTimers(e, 0)
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
	w := NewTimers(e, 0)
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

// Equal-deadline timers fire in arming order.
func TestTimersTiesFireInArmingOrder(t *testing.T) {
	e := New()
	w := NewTimers(e, 0)
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
// through Timers or scheduled directly.
func TestTimersMatchPlainEngine(t *testing.T) {
	type rec struct {
		at units.Seconds
		id int
	}
	run := func(seed uint64, useTimers bool) []rec {
		src := rng.Stream(seed, "sim/timers-differential")
		e := New()
		w := NewTimers(e, 0)
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
				// Delays from under a second to over a thousand.
				d := units.Seconds(src.Float64()) * units.Seconds(uint64(1)<<uint(src.Intn(12)))
				id := nextID
				nextID++
				if useTimers {
					tid := w.After(d, func(TimerID) { got = append(got, rec{e.Now(), id}) })
					live = append(live, armed{tid: tid})
				} else {
					h := after(e, d, func() { got = append(got, rec{e.Now(), id}) })
					live = append(live, armed{h: h})
				}
			case k < 6:
				if len(live) > 0 {
					j := src.Intn(len(live))
					if useTimers {
						w.Cancel(live[j].tid)
					} else {
						live[j].h.Cancel()
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			default:
				// Advance both runs to the same virtual time.
				clock += units.Seconds(src.Intn(64))
				for e.closeHole(); len(e.order) > 0 && e.order[0].at <= clock; e.closeHole() {
					e.Step()
				}
				e.now = clock
			}
		}
		e.Run()
		return got
	}
	for _, seed := range []uint64{3, 99, 2024} {
		timers := run(seed, true)
		plain := run(seed, false)
		if len(timers) != len(plain) {
			t.Fatalf("seed %d: Timers fired %d, plain engine %d", seed, len(timers), len(plain))
		}
		for i := range timers {
			if timers[i] != plain[i] {
				t.Fatalf("seed %d: firing %d diverged: Timers %+v, plain %+v", seed, i, timers[i], plain[i])
			}
		}
	}
}

// A timer is one plain event: armed among AfterArg events at equal
// instants, it fires in call order with them, and cancelling the last
// armed timer leaves the engine with nothing pending.
func TestTimersTieWithPlainEvents(t *testing.T) {
	e := New()
	w := NewTimers(e, 0)
	var got []int
	plain := func(arg uint64) { got = append(got, int(arg)) }
	ids := map[TimerID]int{}
	timer := func(id TimerID) { got = append(got, ids[id]) }
	for i := 0; i < 12; i++ {
		at := units.Seconds(i % 3) // four calls at each of three instants
		if i%2 == 0 {
			e.AfterArg(at, plain, uint64(i))
		} else {
			ids[w.After(at, timer)] = i
		}
	}
	e.Run()
	if want := []int{0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	first, last := w.After(1, timer), w.After(1, timer)
	w.Cancel(first)
	w.Cancel(last)
	if w.Pending() != 0 || e.Pending() != 0 {
		t.Errorf("Pending: timers %d, engine %d after cancelling the last timer, want 0, 0", w.Pending(), e.Pending())
	}
}

// Arming and cancelling deadlines — the retry layer's steady state —
// must not allocate once the arenas are warm.
func TestTimersAfterCancelSteadyStateAllocFree(t *testing.T) {
	e := New()
	w := NewTimers(e, 0)
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
	w := NewTimers(e, 0)
	w.After(-1, func(TimerID) {})
}
