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
