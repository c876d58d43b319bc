package sim

import (
	"fmt"

	"apstdv/internal/units"
)

// TimerID identifies a timer armed through Timers. The zero value means
// "no timer" and is safe to Cancel. It is an alias for uint64 so
// higher layers can pass ids (and id-taking callbacks) across package
// boundaries without adapters.
type TimerID = uint64

// wheelBuckets is the bucket count per wheel level. With granularity g,
// level l spans g·wheelBuckets^(l+1) seconds, so three levels at the
// default 4 s granularity cover about a million simulated seconds.
const wheelBuckets = 64

// DefaultTimerGranularity is the level-0 bucket width used by
// NewTimers. Deadline-style timers (tens of seconds and up) land in
// coarse buckets and share their bucket-boundary event; timers shorter
// than one bucket are scheduled exactly.
const DefaultTimerGranularity units.Seconds = 4

// Timers is a hierarchical timer wheel over an Engine, tuned for the
// deadline pattern: a timer armed and cancelled before it fires costs
// O(1) — an arena write plus a list link, no heap traffic — because
// timers are filed into coarse time buckets and only the bucket
// boundary is an engine event. A timer that survives to its bucket is
// re-filed into finer levels (cascading) and finally scheduled exactly,
// so firing times are exact, not rounded to bucket edges.
//
// Like the engine's event arena, timer slots live in a flat arena with
// a free list and generation counters; buckets are intrusive linked
// lists threaded through the arena, and the wheel's only callbacks are
// two method values built at construction. Arming, cancelling, and
// firing therefore allocate nothing in the steady state, and a stale
// TimerID is a no-op.
//
// Parking: when a bucket's last live timer cancels while other timers
// stay armed, its boundary event is not cancelled but parked — stripped
// of its callback in place and kept on a stack. The next arm into an
// empty bucket re-keys a parked event onto its boundary
// (Engine.MoveArg) instead of scheduling a new one, so a deadline armed
// and cancelled run after run costs one sift, not a mid-heap removal
// and an insert. MoveArg takes the sequence number Cancel + AtArg would
// have, so every live event keeps its (at, seq) key and firing order is
// unchanged. A parked event that comes due is discarded without moving
// the clock, and parked events are dropped whenever no timer is armed,
// so Now() never stops on one and an idle wheel leaves the engine
// empty.
type Timers struct {
	eng    *Engine
	gran   units.Seconds
	levels []wheelLevel
	arena  []timer
	free   []int32
	armed  int // live timer count, so Pending is O(1)
	// parked holds boundary events of emptied buckets, waiting to be
	// re-keyed by the next arm into an empty bucket. A parked event may
	// have come due and been discarded since; MoveArg then schedules
	// afresh.
	parked []Handle
	// openFn/fireFn are the wheel's only engine callbacks, built once in
	// NewTimers and dispatched by argument (bucket coordinates, arena
	// slot) so neither filing nor firing creates a closure.
	openFn func(uint64)
	fireFn func(uint64)
}

type wheelLevel struct {
	width   units.Seconds // bucket width at this level
	buckets [wheelBuckets]bucket
}

// bucket is an intrusive singly-linked list of arena slots (links in
// timer.next, stored as slot+1 so the zero value is the empty list).
// Cancelled timers stay linked as dead entries until the bucket is
// swept — at its boundary event, or eagerly when its last live timer
// cancels.
type bucket struct {
	head, tail int32
	live       int
	// openH is the scheduled bucket-boundary event, parked when the last
	// live timer leaves the bucket.
	openH Handle
}

// timer is one arena slot.
type timer struct {
	at  units.Seconds
	fn  func(TimerID)
	gen uint32
	// next links the timer into its bucket's list (slot+1; 0 = end).
	next int32
	// where the timer is tracked: a bucket (level, idx), or the engine
	// directly (exact) once it is due within one granule.
	level, idx int32
	exact      bool
	exactH     Handle
}

// NewTimers returns a timer wheel on eng with the given level-0 bucket
// width (granularity ≤ 0 selects DefaultTimerGranularity).
func NewTimers(eng *Engine, granularity units.Seconds) *Timers {
	if granularity <= 0 {
		granularity = DefaultTimerGranularity
	}
	w := &Timers{eng: eng, gran: granularity}
	w.openFn = w.openBucket
	w.fireFn = w.fireSlot
	return w
}

// After arms fn to fire d seconds from now (exact, not rounded to a
// bucket edge) and returns an id for Cancel. fn receives the same id,
// so one long-lived callback can serve many timers and fence stale
// firings by comparison. Negative d panics, like Engine.AfterArg.
func (w *Timers) After(d units.Seconds, fn func(TimerID)) TimerID {
	if d < 0 {
		panic(fmt.Sprintf("sim: arming timer %v in the past", d))
	}
	var slot int32
	if n := len(w.free); n > 0 {
		slot = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		slot = int32(len(w.arena))
		w.arena = append(w.arena, timer{})
	}
	tm := &w.arena[slot]
	tm.at = w.eng.Now() + d
	tm.fn = fn
	w.armed++
	w.file(slot)
	return TimerID(uint64(slot+1)<<32 | uint64(tm.gen))
}

// Cancel disarms the timer. Cancelling a zero, already-fired, or stale
// id is a no-op. The common case — a timer still filed in a bucket —
// is O(1): the entry is marked dead and left for the bucket sweep,
// except that the last live timer leaving a bucket sweeps it eagerly
// and parks the boundary event (see Timers).
func (w *Timers) Cancel(id TimerID) {
	if id == 0 {
		return
	}
	slot := int32(id>>32) - 1
	if slot < 0 || int(slot) >= len(w.arena) {
		return
	}
	tm := &w.arena[slot]
	if tm.gen != uint32(id) || tm.fn == nil {
		return
	}
	w.armed--
	if tm.exact {
		tm.exactH.Cancel()
		w.release(slot)
	} else {
		tm.fn = nil // dead entry; the slot is reclaimed at sweep time
		b := &w.levels[tm.level].buckets[tm.idx]
		b.live--
		if b.live == 0 {
			if w.eng.park(b.openH) {
				w.parked = append(w.parked, b.openH)
			}
			b.openH = Handle{}
			w.sweep(b)
		}
	}
	w.dropParkedIfIdle()
}

// dropParkedIfIdle cancels every parked event once no timer is armed:
// with nothing armed no bucket will want one, and the engine should not
// hold events nothing will fire.
func (w *Timers) dropParkedIfIdle() {
	if w.armed != 0 {
		return
	}
	for _, h := range w.parked {
		h.Cancel()
	}
	w.parked = w.parked[:0]
}

// Pending returns the number of armed timers.
func (w *Timers) Pending() int { return w.armed }

// Reset disarms every timer and empties every bucket while keeping the
// arena and free-list capacity, bumping generations so pre-reset ids go
// stale. Call it alongside Engine.Reset — the bucket boundary events the
// wheel had scheduled die with the engine's schedule, so the wheel must
// not believe they are still pending.
func (w *Timers) Reset() {
	w.armed = 0
	w.parked = w.parked[:0]
	w.free = w.free[:0]
	for i := range w.arena {
		tm := &w.arena[i]
		tm.fn = nil
		tm.next = 0
		tm.exact = false
		tm.exactH = Handle{}
		tm.gen++
		w.free = append(w.free, int32(i))
	}
	for l := range w.levels {
		for b := range w.levels[l].buckets {
			w.levels[l].buckets[b] = bucket{}
		}
	}
}

// release returns a timer slot to the free list, invalidating
// outstanding ids.
func (w *Timers) release(slot int32) {
	tm := &w.arena[slot]
	tm.fn = nil
	tm.next = 0
	tm.exact = false
	tm.exactH = Handle{}
	tm.gen++
	w.free = append(w.free, slot)
}

// sweep unlinks a bucket's list, releasing every entry. Only called
// when all entries are dead (live == 0).
func (w *Timers) sweep(b *bucket) {
	h := b.head
	b.head, b.tail = 0, 0
	for h != 0 {
		slot := h - 1
		h = w.arena[slot].next
		w.release(slot)
	}
}

// file places the timer into the wheel: exactly on the engine when it
// is due within one level-0 bucket, otherwise into the coarsest-needed
// bucket whose boundary event will cascade it back through file.
func (w *Timers) file(slot int32) {
	tm := &w.arena[slot]
	now := w.eng.Now()
	d := tm.at - now
	if d < w.gran {
		tm.exact = true
		at := tm.at
		if at < now {
			at = now // float guard; a filed timer is never logically past
		}
		tm.exactH = w.eng.AtArg(at, w.fireFn, uint64(slot))
		return
	}
	// Pick the finest level whose span covers d: width(l) =
	// gran·wheelBuckets^l, span(l) = width(l)·wheelBuckets. At the chosen
	// level d ≥ width, so the bucket boundary below is strictly in the
	// future and every cascade makes progress.
	level := 0
	width := w.gran
	for d >= width*wheelBuckets {
		width *= wheelBuckets
		level++
	}
	for len(w.levels) <= level {
		w.levels = append(w.levels, wheelLevel{width: w.gran * pow(wheelBuckets, len(w.levels))})
	}
	idx := int32(uint64(tm.at/width) % wheelBuckets)
	tm.exact = false
	tm.level, tm.idx = int32(level), idx
	tm.next = 0
	b := &w.levels[level].buckets[idx]
	if b.live == 0 {
		// First live timer in the window: schedule the boundary event,
		// re-keying a parked one when there is one. Dead entries cannot
		// linger here (the last cancel sweeps), so the list is empty too.
		start := units.Seconds(uint64(tm.at/width)) * width
		if start < now {
			start = now // float guard, see above
		}
		var h Handle
		if n := len(w.parked); n > 0 {
			h = w.parked[n-1]
			w.parked = w.parked[:n-1]
		}
		b.openH = w.eng.MoveArg(h, start, w.openFn, uint64(level)<<32|uint64(uint32(idx)))
	}
	b.live++
	if b.head == 0 {
		b.head, b.tail = slot+1, slot+1
	} else {
		w.arena[b.tail-1].next = slot + 1
		b.tail = slot + 1
	}
}

// openBucket runs at a bucket's boundary: dead entries are reclaimed,
// and every still-armed timer is re-filed — into a finer level, or
// exactly onto the engine once it is due within one granule. Walking
// the list preserves arming order, so equal-deadline timers fire in
// the order they were armed.
func (w *Timers) openBucket(arg uint64) {
	b := &w.levels[arg>>32].buckets[uint32(arg)]
	b.openH = Handle{}
	h := b.head
	b.head, b.tail, b.live = 0, 0, 0
	for h != 0 {
		slot := h - 1
		tm := &w.arena[slot]
		h = tm.next
		tm.next = 0
		if tm.fn == nil {
			w.release(slot)
			continue
		}
		w.file(slot)
	}
}

// fireSlot runs an exactly-scheduled timer: the slot is released first
// so the callback may arm new timers into it, then the callback runs
// with the fired timer's id.
func (w *Timers) fireSlot(arg uint64) {
	slot := int32(arg)
	tm := &w.arena[slot]
	fn := tm.fn
	id := TimerID(uint64(slot+1)<<32 | uint64(tm.gen))
	w.armed--
	w.release(slot)
	w.dropParkedIfIdle()
	fn(id)
}

// pow returns base^exp for small wheel-level computations.
func pow(base units.Seconds, exp int) units.Seconds {
	p := units.Seconds(1)
	for i := 0; i < exp; i++ {
		p *= base
	}
	return p
}
