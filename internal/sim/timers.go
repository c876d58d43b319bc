package sim

import "apstdv/internal/units"

// TimerID identifies a timer armed through Timers. The zero value means
// "no timer" and is safe to Cancel. It is an alias for uint64 so
// higher layers can pass ids (and id-taking callbacks) across package
// boundaries without adapters.
type TimerID = uint64

// Timers arms id-carrying callbacks on an Engine; the grid backend
// serves the engine's stage deadlines through one. A timer is one plain
// event at now + d, fired through one long-lived callback by a slot of
// a table reused through a free list, so arming, cancelling and firing
// allocate nothing once the table has grown, and a timer ties with the
// engine's other events in scheduling order. The id packs the slot's
// generation (high half, never 0) and the slot (low half); the
// generation moves on each time the slot is taken, so the id of a fired
// or cancelled timer never matches a later one and a stale id is a
// no-op.
type Timers struct {
	eng   *Engine
	slots []timer
	free  []int32
	// fireFn is every timer event's callback, built once in NewTimers.
	fireFn func(uint64)
}

// timer is one table slot: an armed timer's callback and the event that
// fires it. fn is nil while the slot is free.
type timer struct {
	fn  func(TimerID)
	h   Handle
	gen uint32
}

// NewTimers returns an empty timer table on eng. The second argument is
// ignored: it was the bucket width of the timer wheel the table
// replaced, and it goes with the first benchmark revision (ROADMAP item
// 1), whose harness still passes it.
func NewTimers(eng *Engine, _ units.Seconds) *Timers {
	w := &Timers{eng: eng}
	w.fireFn = w.fire
	return w
}

// After arms fn to fire d seconds from now and returns an id for
// Cancel. fn receives the same id, so one long-lived callback can serve
// many timers and fence stale firings by comparison. Negative d panics,
// like Engine.AfterArg.
func (w *Timers) After(d units.Seconds, fn func(TimerID)) TimerID {
	var slot int32
	if n := len(w.free); n > 0 {
		slot = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		w.slots = append(w.slots, timer{})
		slot = int32(len(w.slots) - 1)
	}
	t := &w.slots[slot]
	if t.gen++; t.gen == 0 {
		t.gen = 1 // wrapped: 0 would make id 0, "no timer"
	}
	id := TimerID(t.gen)<<32 | TimerID(slot)
	t.fn = fn
	t.h = w.eng.AfterArg(d, w.fireFn, id)
	return id
}

// Cancel disarms the timer: its event leaves the schedule at once, so a
// cancelled timer leaves no trace in the event stream. A zero, fired,
// cancelled or pre-Reset id is a no-op.
func (w *Timers) Cancel(id TimerID) {
	slot := int(uint32(id))
	if slot >= len(w.slots) {
		return
	}
	if t := &w.slots[slot]; t.fn != nil && t.gen == uint32(id>>32) {
		t.h.Cancel()
		w.release(int32(slot))
	}
}

// Pending returns the number of armed timers: every slot not free.
func (w *Timers) Pending() int { return len(w.slots) - len(w.free) }

// Reset disarms every timer while keeping the table's capacity. Call it
// alongside Engine.Reset: the timers' events die with the engine's
// schedule, so the table must not believe they are still pending.
// Generations carry over, so pre-reset ids stay stale.
func (w *Timers) Reset() {
	w.free = w.free[:0]
	for i := range w.slots {
		w.slots[i].fn, w.slots[i].h = nil, Handle{}
		w.free = append(w.free, int32(i))
	}
}

// fire is every timer event's callback. Its timer is armed: a cancel or
// a Reset takes the event off the schedule with it. The slot is freed
// first, so fn may arm the next timer into it.
func (w *Timers) fire(id uint64) {
	slot := int32(uint32(id))
	fn := w.slots[slot].fn
	w.release(slot)
	fn(id)
}

// release returns a slot to the free list.
func (w *Timers) release(slot int32) {
	w.slots[slot].fn, w.slots[slot].h = nil, Handle{}
	w.free = append(w.free, slot)
}
