// Package sim implements a small discrete-event simulation core: a virtual
// clock and an event heap. The grid backend (package grid) builds the
// platform model on top of it; the engine (package engine) is backend
// agnostic and never sees this package directly.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotonically increasing sequence number breaks ties), so a simulation
// is a pure function of its inputs and seeds.
//
// Performance: the schedule is an index-based 4-ary min-heap over a flat
// event arena with a free list. Heap entries carry their (at, seq) key
// inline, so sifting compares entries without touching the arena. AtArg
// reuses arena slots instead of allocating, handles are {slot,
// generation} pairs so Cancel removes the event eagerly (no tombstones
// to skip at pop time), and the steady state performs no per-call heap
// allocation — the only allocations are the amortized growth of the
// arena itself.
//
// Re-keying: MoveArg moves a pending event to a new time in place — one
// sift instead of a removal and an insert — with exactly the ordering
// Cancel followed by AtArg would give. Users whose events are routinely
// rescheduled (the link model's flow completions) go through it.
//
// Firing in place: Step fires the root without removing it first. Its
// heap position becomes a hole that keeps the fired key, and the first
// event the callback schedules takes the hole with one sift down from
// the root, so an event that schedules its successor costs one sift
// instead of a removal and an insert. A hole the callback leaves unfilled
// is removed when it returns. The hole's key is the smallest in the heap
// — every pending key has at ≥ Now and, at equal times, a later sequence
// number — so nothing a callback does (Cancel, MoveArg) sifts past it,
// and because firing order depends only on the unique (at, seq) keys,
// it is the order a remove-then-insert heap gives.
package sim

import (
	"fmt"
	"math"

	"apstdv/internal/units"
)

// event is one arena slot: a scheduled callback plus the bookkeeping
// that lets handles outlive it safely. Slots are reused through a free
// list; gen distinguishes incarnations, so a Handle from a previous
// occupant of the slot can never cancel its successor.
type event struct {
	// fnArg(arg) is the callback: one long-lived function shared by many
	// events, told which one fired.
	fnArg func(uint64)
	arg   uint64
	gen   uint32
	pos   int32 // index in Engine.order, -1 while the slot is free
}

// entry is one heap position: an arena slot and its (at, seq) key,
// held inline so ordering the heap never dereferences the arena.
type entry struct {
	at   units.Seconds
	seq  uint64
	slot int32
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and cancels nothing.
type Handle struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Cancel removes the event from the schedule eagerly: the heap entry is
// deleted and the order fixed in place, so cancelled events cost nothing
// at pop time and Pending stays exact. Cancelling an already-fired,
// already-cancelled, or stale (slot since reused) handle is a no-op.
func (h Handle) Cancel() {
	e := h.e
	if e == nil || !e.live(h) {
		return
	}
	e.removeAt(int(e.arena[h.slot].pos))
	e.release(h.slot)
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; call New.
type Engine struct {
	now   units.Seconds
	seq   uint64
	arena []event
	free  []int32 // arena slots available for reuse
	order []entry // 4-ary min-heap keyed by (at, seq)
	// hole is set while a callback runs and order[0] still holds the key
	// of the event it fired, its slot already released (see Step).
	hole bool
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() units.Seconds { return e.now }

// AtArg schedules fnArg(arg) at absolute virtual time t. Callers
// schedule many events through one long-lived callback dispatched by
// argument (Timers, the grid backend's op table), so an event costs no
// closure. Scheduling in the past panics: it always indicates a
// modelling bug, and silently clamping would corrupt causality.
func (e *Engine) AtArg(t units.Seconds, fnArg func(uint64), arg uint64) Handle {
	h := e.schedule(t)
	ev := &e.arena[h.slot]
	ev.fnArg = fnArg
	ev.arg = arg
	return h
}

// AfterArg schedules fnArg(arg) d seconds from now. Negative d panics.
func (e *Engine) AfterArg(d units.Seconds, fnArg func(uint64), arg uint64) Handle {
	return e.AtArg(e.now+d, fnArg, arg)
}

// MoveArg re-keys the pending event h to fire fnArg(arg) at time t and
// returns its handle. The heap entry sifts to its new place instead of
// being removed and re-inserted, but the ordering is exactly Cancel
// followed by AtArg: the event takes the next sequence number, so among
// events at t it fires after every one scheduled before the call. h
// stays valid. A zero, fired, cancelled or stale h schedules afresh
// through AtArg, so callers need not track which case they hold.
func (e *Engine) MoveArg(h Handle, t units.Seconds, fnArg func(uint64), arg uint64) Handle {
	if h.e != e || !e.live(h) {
		return e.AtArg(t, fnArg, arg)
	}
	e.checkTime(t)
	ev := &e.arena[h.slot]
	ev.fnArg, ev.arg = fnArg, arg
	i := int(ev.pos)
	e.order[i].at, e.order[i].seq = t, e.seq
	e.seq++
	e.fix(i)
	return h
}

// live reports whether h names an event still in the schedule.
func (e *Engine) live(h Handle) bool {
	if int(h.slot) >= len(e.arena) {
		return false
	}
	ev := &e.arena[h.slot]
	return ev.gen == h.gen && ev.pos >= 0
}

// checkTime panics on a time the schedule cannot hold: one in the past
// always indicates a modelling bug, and silently clamping would corrupt
// causality.
func (e *Engine) checkTime(t units.Seconds) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", float64(t)))
	}
}

// schedule allocates and files a slot at time t with no callback yet.
func (e *Engine) schedule(t units.Seconds) Handle {
	e.checkTime(t)
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = int32(len(e.arena))
		e.arena = append(e.arena, event{})
	}
	x := entry{t, e.seq, slot}
	e.seq++
	if e.hole {
		e.hole = false
		e.order[0] = x
		e.siftDown(0)
	} else {
		e.order = append(e.order, x)
		e.siftUp(len(e.order) - 1)
	}
	return Handle{e, slot, e.arena[slot].gen}
}

// Pending returns the number of live scheduled events. Cancellation is
// eager, so this is the heap length less an unfilled hole — O(1), never
// a scan.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.order) - 1
	}
	return len(e.order)
}

// Reset returns the engine to its initial state — clock at zero,
// sequence counter at zero, no pending events — while keeping the arena,
// heap, and free-list capacity, so a reset engine schedules without
// allocating. Every arena generation is bumped, so handles from before
// the reset go stale. Because (at, seq) restart from zero, a reset
// engine replays an identical schedule of calls into identical firing
// order: resets are invisible to deterministic output.
func (e *Engine) Reset() {
	e.now, e.seq = 0, 0
	e.order = e.order[:0]
	e.hole = false
	e.free = e.free[:0]
	for i := range e.arena {
		ev := &e.arena[i]
		ev.fnArg, ev.arg = nil, 0
		ev.pos = -1
		ev.gen++
		e.free = append(e.free, int32(i))
	}
}

// Step fires the earliest event and advances the clock to it. It
// returns false when no live events remain. The fired event's heap
// position is left as a hole for the first event its callback schedules
// (see the package comment); a Step nested in that callback closes it
// first.
func (e *Engine) Step() bool {
	e.closeHole()
	if len(e.order) == 0 {
		return false
	}
	at, slot := e.order[0].at, e.order[0].slot
	ev := &e.arena[slot]
	fnArg, arg := ev.fnArg, ev.arg
	// Release before firing so the callback may reuse the slot (and a
	// stale cancel of this handle is already a no-op).
	e.release(slot)
	e.hole = true
	e.now = at
	fnArg(arg)
	e.closeHole()
	return true
}

// closeHole removes a hole no callback filled.
func (e *Engine) closeHole() {
	if e.hole {
		e.hole = false
		e.removeAt(0)
	}
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// release returns an arena slot to the free list, bumping its generation
// so outstanding handles to the old occupant go stale.
func (e *Engine) release(slot int32) {
	ev := &e.arena[slot]
	ev.fnArg = nil // let the callback be collected while the slot waits
	ev.arg = 0
	ev.pos = -1
	ev.gen++
	e.free = append(e.free, slot)
}

// less orders heap entries by (at, seq); seq is unique, so the order is
// total and equal-timestamp events keep their scheduling order.
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp moves the entry at heap position i toward the root until its
// parent is no larger.
func (e *Engine) siftUp(i int) {
	x := e.order[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(&x, &e.order[p]) {
			break
		}
		e.order[i] = e.order[p]
		e.arena[e.order[i].slot].pos = int32(i)
		i = p
	}
	e.order[i] = x
	e.arena[x.slot].pos = int32(i)
}

// siftDown moves the entry at heap position i toward the leaves until no
// child is smaller.
func (e *Engine) siftDown(i int) {
	n := len(e.order)
	x := e.order[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if less(&e.order[j], &e.order[m]) {
				m = j
			}
		}
		if !less(&e.order[m], &x) {
			break
		}
		e.order[i] = e.order[m]
		e.arena[e.order[i].slot].pos = int32(i)
		i = m
	}
	e.order[i] = x
	e.arena[x.slot].pos = int32(i)
}

// fix restores the heap order after the key at position i changed: the
// entry sifts whichever direction the invariant needs.
func (e *Engine) fix(i int) {
	slot := e.order[i].slot
	e.siftDown(i)
	if e.arena[slot].pos == int32(i) {
		e.siftUp(i)
	}
}

// removeAt deletes the heap entry at position i, fixing the order in
// place: the last entry replaces it and sifts whichever direction
// restores the invariant.
func (e *Engine) removeAt(i int) {
	n := len(e.order) - 1
	last := e.order[n]
	e.order = e.order[:n]
	if i == n {
		return
	}
	e.order[i] = last
	e.arena[last.slot].pos = int32(i)
	e.fix(i)
}

// checkInvariant panics if the heap order or the arena back-references
// are inconsistent. Test hook (see sim fuzz/differential tests).
func (e *Engine) checkInvariant() {
	if e.hole && len(e.order) == 0 {
		panic("sim: hole in an empty heap")
	}
	for i := range e.order {
		x := &e.order[i]
		if i == 0 && e.hole {
			// The fired event's key over its released slot.
			if x.at != e.now || e.arena[x.slot].pos >= 0 {
				panic(fmt.Sprintf("sim: hole keyed at %v with the clock at %v, over slot %d at pos %d",
					x.at, e.now, x.slot, e.arena[x.slot].pos))
			}
			continue
		}
		if got := e.arena[x.slot].pos; got != int32(i) {
			panic(fmt.Sprintf("sim: slot %d at heap position %d has pos %d", x.slot, i, got))
		}
		if i > 0 {
			p := (i - 1) / 4
			if less(x, &e.order[p]) {
				panic(fmt.Sprintf("sim: heap order violated at position %d (parent %d)", i, p))
			}
		}
	}
	for i := range e.arena {
		if e.arena[i].pos >= 0 && int(e.arena[i].pos) >= len(e.order) {
			panic(fmt.Sprintf("sim: slot %d points past heap end", i))
		}
	}
}
