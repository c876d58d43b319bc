package sim

import "apstdv/internal/units"

// FCFSQueue models a resource that serves requests one at a time in
// arrival order — a worker CPU, a download link. The master uplink is
// serialized at the engine layer instead (at most one outstanding
// transfer), so the simulator only needs per-worker queues.
//
// Service completion fires through one method value built at
// construction (engine AtArg dispatch), and requests name long-lived
// callbacks plus an argument (EnqueueArg), so a queue on a hot path
// serves without allocating.
type FCFSQueue struct {
	eng  *Engine
	busy bool
	// pending[head:] are the waiting requests. Popping advances head and
	// zeroes the slot (so served requests' callbacks become collectable)
	// instead of re-slicing, which would keep every served request
	// reachable through the backing array for the queue's lifetime;
	// startNext slides the waiting requests back to the front.
	pending []request
	head    int
	// cur is the request in service, with its service window; fireFn is
	// the queue's only engine callback, built once in NewFCFSQueue.
	cur              request
	curStart, curEnd units.Seconds
	fireFn           func(uint64)
}

// request is one queued service demand: long-lived callbacks
// dispatched with arg (see EnqueueArg).
type request struct {
	// durArgFn is evaluated when service begins, not at enqueue time, so
	// time-varying effects (background load) see the correct clock.
	durArgFn  func(arg uint64, start units.Seconds) units.Seconds
	doneArgFn func(arg uint64, start, end units.Seconds)
	arg       uint64
}

// NewFCFSQueue returns an idle queue on the given engine.
func NewFCFSQueue(eng *Engine) *FCFSQueue {
	q := &FCFSQueue{eng: eng}
	q.fireFn = q.fire
	return q
}

// NewFCFSQueues returns n idle queues on eng, carved from one block
// together with their pending buffers, each holding depth requests
// before it grows on its own. A backend builds its per-worker queues
// this way instead of growing each from empty.
func NewFCFSQueues(eng *Engine, n, depth int) []*FCFSQueue {
	qs := make([]FCFSQueue, n)
	out := make([]*FCFSQueue, n)
	pending := make([]request, n*depth)
	for i := range qs {
		q := &qs[i]
		q.eng = eng
		q.pending = pending[i*depth : i*depth : (i+1)*depth]
		q.fireFn = q.fire
		out[i] = q
	}
	return out
}

// EnqueueArg requests service for a duration durFn(arg, start) that may
// depend on the service start time; done(arg, start, end) fires when
// service completes. Both are long-lived callbacks that receive arg
// back, so enqueuing many requests through one pair of them allocates
// nothing beyond the queue's own amortized growth.
func (q *FCFSQueue) EnqueueArg(arg uint64, durFn func(arg uint64, start units.Seconds) units.Seconds, done func(arg uint64, start, end units.Seconds)) {
	q.pending = append(q.pending, request{durArgFn: durFn, doneArgFn: done, arg: arg})
	if !q.busy {
		q.startNext()
	}
}

// Reset returns the queue to idle with no history, keeping the pending
// buffer's capacity. Call it alongside Engine.Reset — any in-service
// completion event died with the engine's schedule.
func (q *FCFSQueue) Reset() {
	for i := range q.pending {
		q.pending[i] = request{}
	}
	q.pending = q.pending[:0]
	q.head = 0
	q.busy = false
	q.cur = request{}
	q.curStart, q.curEnd = 0, 0
}

func (q *FCFSQueue) startNext() {
	// Once the served slots fill half the buffer, slide the waiting
	// requests (no more than were served) to the front: a queue that
	// stays busy reuses its buffer instead of growing it by every
	// request of the busy period, and grows only when more than half of
	// it waits. Sliding at every service start instead, whenever the
	// served slots outnumber the waiting, costs a copy per request.
	if waiting := len(q.pending) - q.head; waiting == 0 || 2*q.head >= cap(q.pending) {
		copy(q.pending, q.pending[q.head:])
		clear(q.pending[q.head:])
		q.pending = q.pending[:waiting]
		q.head = 0
	}
	if len(q.pending) == 0 {
		q.busy = false
		return
	}
	req := q.pending[q.head]
	q.pending[q.head] = request{}
	q.head++
	q.busy = true
	start := q.eng.Now()
	d := req.durArgFn(req.arg, start)
	if d < 0 {
		d = 0
	}
	end := start + d
	q.cur = req
	q.curStart, q.curEnd = start, end
	q.eng.AtArg(end, q.fireFn, 0)
}

// fire completes the in-service request: it is the engine callback for
// every service end, dispatched without a closure.
func (q *FCFSQueue) fire(uint64) {
	req := q.cur
	start, end := q.curStart, q.curEnd
	q.cur = request{}
	req.doneArgFn(req.arg, start, end)
	q.startNext()
}

// QueueLength returns the number of requests waiting (not counting the
// one in service).
func (q *FCFSQueue) QueueLength() int { return len(q.pending) - q.head }
