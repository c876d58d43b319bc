package sim

import (
	"testing"

	"apstdv/internal/units"
)

// TestFCFSQueuePopReleasesServedRequests checks the head-index pop: a
// served request's slot is zeroed as soon as service starts (so its
// closures are collectable) and the backing slice resets once the queue
// drains, instead of the old pending[1:] re-slice that kept every
// served request reachable for the queue's lifetime.
func TestFCFSQueuePopReleasesServedRequests(t *testing.T) {
	e := New()
	q := NewFCFSQueue(e)
	const n = 8
	done := 0
	for i := 0; i < n; i++ {
		enqueue(q, func(units.Seconds) units.Seconds { return 1 }, func(start, end units.Seconds) {
			done++
			// The in-service slot must already be zeroed.
			for j := 0; j < q.head; j++ {
				if q.pending[j].durArgFn != nil || q.pending[j].doneArgFn != nil {
					t.Errorf("served slot %d still holds closures", j)
				}
			}
		})
	}
	e.Run()
	if done != n {
		t.Fatalf("%d of %d requests served", done, n)
	}
	if q.head != 0 || len(q.pending) != 0 {
		t.Errorf("drained queue not reset: head=%d len=%d", q.head, len(q.pending))
	}
	if q.busy {
		t.Error("drained queue reports busy")
	}
}

// TestFCFSQueueLengthWithHeadIndex checks QueueLength accounts for
// the consumed head region.
func TestFCFSQueueLengthWithHeadIndex(t *testing.T) {
	e := New()
	q := NewFCFSQueue(e)
	lengths := []int{}
	for i := 0; i < 3; i++ {
		enqueue(q, func(units.Seconds) units.Seconds { return 1 }, func(start, end units.Seconds) {
			lengths = append(lengths, q.QueueLength())
		})
	}
	if q.QueueLength() != 2 {
		t.Errorf("initial waiting = %d, want 2 (one in service)", q.QueueLength())
	}
	e.Run()
	// done fires before the next request starts, so request i still sees
	// the 2-i requests behind it waiting.
	for i, l := range lengths {
		if want := 2 - i; l != want {
			t.Errorf("after service %d: QueueLength = %d, want %d", i, l, want)
		}
	}
}

// TestFCFSQueuesShareNoSlots checks NewFCFSQueues' one block: queues
// that outgrow their depth, enqueued to in turn, each serve exactly
// their own requests in order.
func TestFCFSQueuesShareNoSlots(t *testing.T) {
	e := New()
	qs := NewFCFSQueues(e, 3, 2)
	served := make([][]uint64, len(qs))
	for k := 0; k < 5; k++ {
		for i, q := range qs {
			q.EnqueueArg(uint64(10*i+k),
				func(uint64, units.Seconds) units.Seconds { return 1 },
				func(arg uint64, _, _ units.Seconds) { served[i] = append(served[i], arg) })
		}
	}
	e.Run()
	for i, got := range served {
		for k := 0; k < 5; k++ {
			if k >= len(got) || got[k] != uint64(10*i+k) {
				t.Fatalf("queue %d served %v; want %d..%d in order", i, got, 10*i, 10*i+4)
			}
		}
		if len(got) != 5 {
			t.Fatalf("queue %d served %v; want 5 requests", i, got)
		}
	}
}

// TestBusyQueueReusesItsBuffer keeps a queue busy through 10 000
// requests, never more than three waiting (each completion enqueues the
// next), so it never drains: it must slide its waiting requests back
// over the served slots instead of growing its buffer by every request,
// and still serve them in FIFO order at the times a queue's sum of
// service durations gives.
func TestBusyQueueReusesItsBuffer(t *testing.T) {
	const n = 10000
	e := New()
	q := NewFCFSQueue(e)
	dur := func(k uint64, _ units.Seconds) units.Seconds { return units.Seconds(1 + k%4) }
	served, maxCap := uint64(0), 0
	var at units.Seconds
	var done func(k uint64, start, end units.Seconds)
	done = func(k uint64, start, end units.Seconds) {
		if k != served {
			t.Fatalf("served request %d; want %d next", k, served)
		}
		if want := at + dur(k, 0); start != at || end != want {
			t.Fatalf("request %d served over [%v, %v]; want [%v, %v]", k, start, end, at, want)
		}
		served++
		at = end
		if next := k + 3; next < n {
			q.EnqueueArg(next, dur, done)
		}
		if w := q.QueueLength(); w > 3 {
			t.Fatalf("%d requests waiting; the test keeps at most 3", w)
		}
		maxCap = max(maxCap, cap(q.pending))
	}
	for k := uint64(0); k < 3; k++ {
		q.EnqueueArg(k, dur, done)
	}
	e.Run()
	if served != n {
		t.Fatalf("%d of %d requests served", served, n)
	}
	if maxCap > 8 {
		t.Errorf("a busy queue with at most 3 waiting grew its buffer to %d slots; want at most 8", maxCap)
	}
}
