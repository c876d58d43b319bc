package sim

import (
	"slices"
	"testing"

	"apstdv/internal/units"
)

// FuzzHeapInvariant interprets the input as a script of schedule /
// cancel / step / re-key operations and checks the arena-heap invariant
// (heap order, pos back-references, free-list consistency) and Pending
// after every one. Two bytes per op: the first picks the operation, the
// second its operand (a delay for schedule, a handle index for cancel
// and re-key). Every callback reads one more byte n and runs the next
// n%4 operations from inside Step, so the hole Step leaves at the root
// is filled by none, one or several schedules, sifted around by cancels
// and re-keys, and stepped over by a nested Step. Pending is checked
// against a count of the handles the engine still calls live, which
// knows nothing of the hole.
func FuzzHeapInvariant(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 2, 0, 1, 0})                          // ties then step then cancel
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 1, 1, 0, 2, 0})              // cancel-heavy
	f.Add([]byte{0, 5, 1, 0, 0, 5, 1, 0})                          // slot reuse
	f.Add([]byte{0, 3, 0, 6, 4, 1, 4, 0, 2, 0, 4, 0})              // re-key both ways, then a fired handle
	f.Add([]byte{0, 2, 0, 4, 2, 0, 3, 0, 5, 0, 7, 4, 9, 5, 1})     // a callback schedules many
	f.Add([]byte{0, 1, 0, 3, 0, 6, 2, 0, 3, 1, 1, 4, 13, 5, 0, 0}) // a callback cancels, re-keys and schedules
	f.Fuzz(func(t *testing.T, script []byte) {
		e := New()
		var live []Handle
		handed := map[Handle]bool{} // every handle handed out
		check := func() {
			t.Helper()
			e.checkInvariant()
			want := 0
			for h := range handed {
				if e.live(h) {
					want++
				}
			}
			if e.Pending() != want {
				t.Fatalf("Pending = %d, %d handles live", e.Pending(), want)
			}
		}
		pos := 0
		next := func() (byte, bool) {
			if pos >= len(script) {
				return 0, false
			}
			pos++
			return script[pos-1], true
		}
		var do func(op, arg byte)
		nested := func() {
			check()
			n, _ := next()
			for k := n % 4; k > 0 && pos+1 < len(script); k-- {
				op, _ := next()
				arg, _ := next()
				do(op, arg)
				check()
			}
		}
		fn := func() { nested() }
		fnArg := func(uint64) { nested() }
		do = func(op, arg byte) {
			switch op % 5 {
			case 0: // schedule; small delays force timestamp collisions
				h := after(e, units.Seconds(arg%8), fn)
				live = append(live, h)
				handed[h] = true
			case 1: // cancel a handle (possibly stale — must stay a no-op)
				if len(live) > 0 {
					j := int(arg) % len(live)
					live[j].Cancel()
					if arg%2 == 0 { // sometimes keep it around to cancel again
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
			case 2:
				e.Step()
			case 3: // double-cancel the same handle
				if len(live) > 0 {
					j := int(arg) % len(live)
					live[j].Cancel()
					live[j].Cancel()
				}
			case 4: // re-key a handle (possibly fired: then it schedules afresh)
				if len(live) > 0 {
					j := int(arg) % len(live)
					pending := e.Pending()
					was := e.live(live[j])
					live[j] = e.MoveArg(live[j], e.Now()+units.Seconds(arg>>3%8), fnArg, 0)
					handed[live[j]] = true
					if was && e.Pending() != pending || !was && e.Pending() != pending+1 {
						t.Fatalf("MoveArg of a handle pending=%v took Pending %d -> %d", was, pending, e.Pending())
					}
				}
			}
		}
		for pos+1 < len(script) {
			op, _ := next()
			arg, _ := next()
			do(op, arg)
			check()
		}
		e.Run()
		check()
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d after Run, want 0", e.Pending())
		}
	})
}

// FuzzTimersMatchReference runs an arm / cancel / step script through
// Timers and through a naive reference — a plain list of armed
// deadlines — and checks that every timer fires exactly at its deadline,
// that none fires while an earlier deadline is still armed (equal
// deadlines may fire in either order), that cancelled timers never fire
// and that none is lost. Each armed timer is one engine event, so the
// engine holds exactly as many events as timers are armed. Two bytes
// per op: the first picks the operation, the second its operand (a
// delay code for arm, an id index for cancel).
func FuzzTimersMatchReference(f *testing.F) {
	f.Add([]byte{0, 40, 0, 80, 1, 1, 2, 0, 2, 0, 2, 0})         // cancel, then re-arm a slot
	f.Add([]byte{0, 200, 0, 3, 0, 100, 1, 2, 1, 0, 2, 0})       // long delays, cancels to idle
	f.Add([]byte{0, 10, 0, 10, 0, 42, 0, 10, 1, 2, 2, 0, 2, 0}) // ties
	f.Fuzz(func(t *testing.T, script []byte) {
		e := New()
		w := NewTimers(e, 0)
		type ref struct {
			id TimerID
			at units.Seconds
		}
		var armed []ref   // the reference: every timer armed and not yet fired or cancelled
		var ids []TimerID // every id handed out, fired and cancelled ones included
		fire := func(id TimerID) {
			now := e.Now()
			i := slices.IndexFunc(armed, func(r ref) bool { return r.id == id })
			if i < 0 {
				t.Fatalf("timer %#x fired at %v but is not armed", id, now)
			}
			if armed[i].at != now {
				t.Fatalf("timer %#x fired at %v, deadline %v", id, now, armed[i].at)
			}
			for _, r := range armed {
				if r.at < now {
					t.Fatalf("timer %#x fired at %v while %#x (deadline %v) is still armed", id, now, r.id, r.at)
				}
			}
			armed = slices.Delete(armed, i, i+1)
		}
		check := func() {
			if w.Pending() != len(armed) {
				t.Fatalf("table reports %d armed, reference %d", w.Pending(), len(armed))
			}
			if e.Pending() != w.Pending() {
				t.Fatalf("%d timers armed but the engine holds %d events", w.Pending(), e.Pending())
			}
			e.checkInvariant()
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op % 3 {
			case 0: // arm: up to 31 units of 4^0..4^7 s
				d := units.Seconds(arg&31) * units.Seconds(uint64(1)<<(2*(arg>>5)))
				id := w.After(d, fire)
				armed = append(armed, ref{id, e.Now() + d})
				ids = append(ids, id)
			case 1: // cancel any id handed out, fired or cancelled ones too
				if len(ids) > 0 {
					id := ids[int(arg)%len(ids)]
					w.Cancel(id)
					armed = slices.DeleteFunc(armed, func(r ref) bool { return r.id == id })
				}
			case 2:
				e.Step()
			}
			check()
		}
		for e.Step() {
			check()
		}
		if len(armed) != 0 {
			t.Fatalf("%d timers never fired", len(armed))
		}
	})
}
