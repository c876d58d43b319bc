package sim

import (
	"math"
	"testing"

	"apstdv/internal/units"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	at(e, 3, func() { order = append(order, 3) })
	at(e, 1, func() { order = append(order, 1) })
	at(e, 2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		at(e, 5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of schedule order: %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := New()
	var fired units.Seconds
	at(e, 10, func() {
		after(e, 5, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 15 {
		t.Errorf("AfterArg(5) from t=10 fired at %v, want 15", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	at(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		at(e, 5, func() {})
	})
	e.Run()
}

func TestNonFiniteTimePanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("NaN time did not panic")
		}
	}()
	at(e, units.Seconds(math.NaN()), func() {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	h := at(e, 1, func() { fired = true })
	h.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancel after run and double-cancel are no-ops.
	h.Cancel()
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	h1 := at(e, 1, func() { got = append(got, 1) })
	at(e, 2, func() { got = append(got, 2) })
	h1.Cancel()
	e.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("got %v, want [2]", got)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
	at(e, 1, func() {})
	if !e.Step() {
		t.Error("Step with pending event returned false")
	}
	if e.Step() {
		t.Error("Step after draining returned true")
	}
}

func TestPending(t *testing.T) {
	e := New()
	h := at(e, 1, func() {})
	at(e, 2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	h.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending after cancel = %d, want 1", e.Pending())
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain scheduled from within callbacks must run to
	// completion — the pattern the grid backend uses everywhere.
	e := New()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			after(e, 1, step)
		}
	}
	at(e, 0, step)
	e.Run()
	if count != 100 {
		t.Errorf("cascade ran %d steps, want 100", count)
	}
	if e.Now() != 99 {
		t.Errorf("clock = %v, want 99", e.Now())
	}
}

func TestFCFSQueueSerializesInOrder(t *testing.T) {
	e := New()
	q := NewFCFSQueue(e)
	type span struct{ s, e units.Seconds }
	var spans []span
	for i := 0; i < 3; i++ {
		enqueue(q,
			func(units.Seconds) units.Seconds { return 10 },
			func(s, end units.Seconds) { spans = append(spans, span{s, end}) },
		)
	}
	e.Run()
	if len(spans) != 3 {
		t.Fatalf("served %d, want 3", len(spans))
	}
	for i, sp := range spans {
		wantStart := units.Seconds(10 * i)
		if sp.s != wantStart || sp.e != wantStart+10 {
			t.Errorf("service %d = [%v, %v], want [%v, %v]", i, sp.s, sp.e, wantStart, wantStart+10)
		}
	}
}

func TestFCFSQueueDurationSeesServiceStart(t *testing.T) {
	// Duration functions must be evaluated at service start, not enqueue
	// time (background load depends on the clock).
	e := New()
	q := NewFCFSQueue(e)
	var starts []units.Seconds
	dur := func(start units.Seconds) units.Seconds {
		starts = append(starts, start)
		return 5
	}
	enqueue(q, dur, func(_, _ units.Seconds) {})
	enqueue(q, dur, func(_, _ units.Seconds) {})
	e.Run()
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 5 {
		t.Errorf("durFn saw starts %v, want [0 5]", starts)
	}
}

func TestFCFSQueueLateArrival(t *testing.T) {
	e := New()
	q := NewFCFSQueue(e)
	var start2 units.Seconds
	enqueue(q, func(units.Seconds) units.Seconds { return 3 }, func(_, _ units.Seconds) {})
	at(e, 10, func() {
		enqueue(q, func(units.Seconds) units.Seconds { return 1 }, func(s, _ units.Seconds) { start2 = s })
	})
	e.Run()
	if start2 != 10 {
		t.Errorf("request arriving at idle queue started at %v, want 10", start2)
	}
}

func TestFCFSQueueNegativeDurationClamped(t *testing.T) {
	e := New()
	q := NewFCFSQueue(e)
	var served bool
	enqueue(q, func(units.Seconds) units.Seconds { return -5 }, func(s, end units.Seconds) {
		served = true
		if end < s {
			t.Errorf("service ended before it started: [%v, %v]", s, end)
		}
	})
	e.Run()
	if !served {
		t.Error("negative-duration request never served")
	}
}

func TestFCFSQueueLength(t *testing.T) {
	e := New()
	q := NewFCFSQueue(e)
	for i := 0; i < 3; i++ {
		enqueue(q, func(units.Seconds) units.Seconds { return 1 }, func(_, _ units.Seconds) {})
	}
	if q.QueueLength() != 2 {
		t.Errorf("QueueLength = %d, want 2 (one in service)", q.QueueLength())
	}
	e.Run()
}
