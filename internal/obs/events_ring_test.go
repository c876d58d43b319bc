package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// fillEvent sets every field of an Event to a distinct non-zero value
// via reflection, so a round trip that loses or mixes up any field —
// one added to Event later included — shows up as a mismatch.
func fillEvent(t *testing.T, n int) Event {
	t.Helper()
	var ev Event
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("%s-%d", v.Type().Field(i).Name, n))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n*100 + i + 1))
		case reflect.Float64:
			f.SetFloat(float64(n*100+i) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Event field %s has kind %v — teach fillEvent about it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return ev
}

// Every Event field must survive the trip through the ring's pages.
func TestRingRoundTripsEveryField(t *testing.T) {
	r := NewRing(8)
	want := []Event{fillEvent(t, 1), fillEvent(t, 2), fillEvent(t, 3)}
	for i := range want {
		r.EmitPtr(&want[i])
	}
	got := r.After(-1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// EmitPtr must copy: mutating the event after the call cannot change
// what the ring stored.
func TestRingEmitPtrCopies(t *testing.T) {
	r := NewRing(4)
	ev := fillEvent(t, 1)
	r.EmitPtr(&ev)
	ev = fillEvent(t, 2)
	want := fillEvent(t, 1)
	if got := r.After(-1); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("stored event changed after EmitPtr returned: %+v", got)
	}
}

// Wrapping must keep the newest n events in emission order.
func TestRingWrap(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.EmitPtr(&Event{Seq: int64(i), Alg: fmt.Sprintf("alg%d", i%3), Err: fmt.Sprintf("e%d", i)})
	}
	got := r.After(-1)
	if len(got) != 4 {
		t.Fatalf("After(-1) returned %d events, want 4", len(got))
	}
	for i, ev := range got {
		wantSeq := int64(6 + i)
		if ev.Seq != wantSeq {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if want := fmt.Sprintf("alg%d", wantSeq%3); ev.Alg != want {
			t.Errorf("event %d: Alg = %q, want %q", i, ev.Alg, want)
		}
		if want := fmt.Sprintf("e%d", wantSeq); ev.Err != want {
			t.Errorf("event %d: Err = %q, want %q", i, ev.Err, want)
		}
	}
}

// The steady state — emitting into a ring that is at capacity, so every
// page it will ever hold is taken — must not allocate: an emit is one
// event copy into a page the ring already has.
func TestRingEmitSteadyStateAllocFree(t *testing.T) {
	const n = 2*pageEvents + 5
	r := NewRing(n)
	ev := Event{Type: ChunkDone, Alg: "fixed-rumr", Worker: 3, Size: 12.5}
	for i := 0; i < n; i++ {
		r.EmitPtr(&ev) // fill to capacity
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ev.Seq++
		r.EmitPtr(&ev)
	})
	if allocs != 0 {
		t.Errorf("steady-state EmitPtr allocated %.1f objects per event, want 0", allocs)
	}
}

// A ring whose pages come from a primed pool — a previous ring of the
// same size released them — fills without allocating a page: what is
// left is the page table's own growth, a handful of small slices.
func TestPooledRingFillsFromPoolWithoutPages(t *testing.T) {
	const n = 16 * pageEvents
	pool := NewPagePool(n / pageEvents * pageBytes)
	ev := Event{Type: ChunkDone, Alg: "umr", Worker: 1}
	fill := func() {
		r := pool.NewRing(n)
		for i := 0; i < n; i++ {
			ev.Seq = int64(i)
			r.EmitPtr(&ev)
		}
		if got := r.Bytes(); got != n/pageEvents*pageBytes {
			t.Fatalf("full ring holds %d bytes, want %d", got, n/pageEvents*pageBytes)
		}
		r.Release()
		if got := r.Bytes(); got != 0 {
			t.Fatalf("released ring holds %d bytes", got)
		}
	}
	fill() // primes the pool with the ring's 16 pages
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	if grown := int(after.TotalAlloc - before.TotalAlloc); grown >= pageBytes {
		t.Errorf("filling %d events from a primed pool allocated %d bytes; a single page is %d", n, grown, pageBytes)
	}
}

// A ring grows to its target a page at a time and retains exactly the last n
// at every fill level, page boundary and wrap, whatever n is relative
// to the page size.
func TestRingGrowsToTarget(t *testing.T) {
	const target = pageEvents*4 + 3 // several pages, the last one partial
	for _, emits := range []int{1, pageEvents, pageEvents + 1, target - 1, target, target + 5, 3 * target} {
		r := NewRing(target)
		for i := 0; i < emits; i++ {
			r.EmitPtr(&Event{Seq: int64(i)})
		}
		got := r.After(-1)
		wantLen := emits
		if wantLen > target {
			wantLen = target
		}
		if len(got) != wantLen {
			t.Fatalf("after %d emits: After(-1) returned %d events, want %d", emits, len(got), wantLen)
		}
		for i, ev := range got {
			if want := int64(emits - wantLen + i); ev.Seq != want {
				t.Fatalf("after %d emits: event %d has Seq %d, want %d", emits, i, ev.Seq, want)
			}
		}
		wantPages := (wantLen + pageEvents - 1) / pageEvents
		if got := r.Bytes(); got != wantPages*pageBytes {
			t.Fatalf("after %d emits: ring holds %d bytes, want %d pages", emits, got, wantPages)
		}
	}
}

// lastN is the reference model the paged ring is checked against: a
// plain slice of the last n events.
type lastN struct {
	n   int
	evs []Event
}

func (m *lastN) emit(ev Event) {
	m.evs = append(m.evs, ev)
	if len(m.evs) > m.n {
		m.evs = m.evs[len(m.evs)-m.n:]
	}
}

func (m *lastN) after(seq int64) []Event {
	var out []Event
	for _, ev := range m.evs {
		if ev.Seq > seq {
			out = append(out, ev)
		}
	}
	return out
}

// randomEvent draws an event with a handful of distinct strings and,
// on about one event in five, an error text.
func randomEvent(rnd *rand.Rand, seq int64) Event {
	types := []EventType{Dispatch, ChunkDone, UplinkBusy, UplinkIdle, ChunkRetry}
	ev := Event{
		Seq: seq, T: rnd.Float64(), Type: types[rnd.Intn(len(types))],
		Alg: fmt.Sprintf("alg%d", rnd.Intn(3)), Class: []string{"", "high", "low"}[rnd.Intn(3)],
		Worker: rnd.Intn(16) - 1, Chunk: rnd.Intn(4000), Size: rnd.Float64() * 100,
		Link: []string{"", "", "l0", "l1"}[rnd.Intn(4)],
	}
	if rnd.Intn(5) == 0 {
		ev.Err = fmt.Sprintf("boom-%d", seq)
	}
	return ev
}

// The paged ring equals the last-n slice model — order, Err texts,
// every string field — for capacities around the page size and emission
// counts past several wraps; a released ring reads empty, and a second
// ring that takes over the very same pages is not polluted by what the
// first left in them.
func TestRingMatchesLastNModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 4, 8, pageEvents - 1, pageEvents, pageEvents + 1, 8192} {
		pool := NewPagePool((1 + 8192/pageEvents) * pageBytes)
		var released *Ring
		for round := 0; round < 3; round++ {
			r := pool.NewRing(n)
			m := &lastN{n: n}
			emits := []int{n / 2, n, 3*n + rnd.Intn(n+1) + 1}[round]
			base := int64(rnd.Intn(100))
			for i := 0; i < emits; i++ {
				ev := randomEvent(rnd, base+int64(i))
				r.EmitPtr(&ev)
				m.emit(ev)
			}
			if got := r.After(-1); len(got) != len(m.evs) || (len(got) > 0 && !reflect.DeepEqual(got, m.evs)) {
				t.Fatalf("n=%d round %d after %d emits: ring and model differ\n ring  %+v\n model %+v", n, round, emits, got, m.evs)
			}
			if got, want := r.NextSeq(), base+int64(emits); emits > 0 && got != want {
				t.Fatalf("n=%d round %d: NextSeq = %d, want %d", n, round, got, want)
			}
			for _, cursor := range []int64{-1, base - 5, base, base + int64(emits)/2, base + int64(emits) - 2, base + int64(emits) - 1, base + int64(emits) + 3} {
				if got, want := r.After(cursor), m.after(cursor); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d round %d: After(%d) returned %d events, model %d", n, round, cursor, len(got), len(want))
				}
			}
			if released != nil && len(released.After(-1)) != 0 {
				t.Fatalf("n=%d round %d: a released ring reads events after its pages were reused", n, round)
			}
			next := r.NextSeq()
			r.Release()
			if got := r.After(-1); got != nil {
				t.Fatalf("n=%d round %d: released ring still tails %d events", n, round, len(got))
			}
			if r.Bytes() != 0 || r.NextSeq() != next {
				t.Fatalf("n=%d round %d: released ring holds %d bytes, NextSeq %d (was %d)", n, round, r.Bytes(), r.NextSeq(), next)
			}
			released = r
		}
	}
}

// After seeks instead of copying the whole ring: for random emission
// counts, capacities and cursors — a wrapped ring and a cursor older
// than the tail included — it returns what filtering the whole ring
// (After(-1), which seeks nowhere) returns, and it allocates the
// returned slice and nothing else.
func TestRingAfterSeeks(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rnd.Intn(3*pageEvents)
		emits := rnd.Intn(4 * n)
		base := int64(rnd.Intn(50))
		r := NewRing(n)
		for i := 0; i < emits; i++ {
			ev := randomEvent(rnd, base+int64(i))
			r.EmitPtr(&ev)
		}
		cursor := base - 3 + int64(rnd.Intn(emits+6))
		var want []Event
		for _, ev := range r.After(-1) {
			if ev.Seq > cursor {
				want = append(want, ev)
			}
		}
		if got := r.After(cursor); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d emits=%d base=%d: After(%d) returned %d events, filter %d", n, emits, base, cursor, len(got), len(want))
		}
	}

	r := NewRing(8192)
	ev := Event{Type: ChunkDone, Alg: "umr"}
	for i := 0; i < 3*8192; i++ {
		ev.Seq = int64(i)
		r.EmitPtr(&ev)
	}
	last := int64(3*8192 - 1)
	for _, tail := range []int{0, 1, 10, 1000} {
		var got []Event
		allocs := testing.AllocsPerRun(20, func() { got = r.After(last - int64(tail)) })
		if len(got) != tail {
			t.Fatalf("After(last-%d) returned %d events", tail, len(got))
		}
		want := 1.0 // the returned slice
		if tail == 0 {
			want = 0
		}
		if allocs != want {
			t.Errorf("After returning %d events made %.0f allocations, want %.0f", tail, allocs, want)
		}
		if tail > 0 && cap(got) != tail {
			t.Errorf("After returning %d events allocated room for %d", tail, cap(got))
		}
	}
}

// An owner appending between an emitter's events must not duplicate a
// sequence number: the emitter numbers densely from the NextSeq it was
// given, the owner's append takes the emitter's next number, and every
// later emitter event moves one past what the ring holds. A cursor at
// the appended event then still sees every event after it.
func TestRingInterleavedAppendKeepsSeqUnique(t *testing.T) {
	r := NewRing(16)
	r.Append(&Event{Type: JobStarted})
	base := r.NextSeq()
	for i := int64(0); i < 3; i++ {
		ev := Event{Seq: base + i, Type: Dispatch}
		r.EmitPtr(&ev)
	}
	r.Append(&Event{Type: JobReshared})
	for i := int64(3); i < 6; i++ {
		ev := Event{Seq: base + i, Type: ChunkDone}
		r.EmitPtr(&ev)
	}
	snap := r.After(-1)
	reshared := int64(-1)
	for i, ev := range snap {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d (%s) has Seq %d, want %d: %+v", i, ev.Type, ev.Seq, i, snap)
		}
		if ev.Type == JobReshared {
			reshared = ev.Seq
		}
	}
	if got := r.After(reshared); len(got) != 3 || got[0].Type != ChunkDone {
		t.Fatalf("After(%d) at the reshare returned %d events, want the 3 chunk_done after it", reshared, len(got))
	}
	if got, want := r.NextSeq(), int64(len(snap)); got != want {
		t.Fatalf("NextSeq = %d, want %d", got, want)
	}
}
