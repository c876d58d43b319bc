package engine

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	"apstdv/internal/trace"
	"apstdv/internal/units"
)

// errInjected is the failure scriptBackend reports for a failed operation.
var errInjected = errors.New("script: injected failure")

// scriptBackend is a closure-form backend — it has no op forms, so the
// engine reaches it through completion cells — on a virtual clock. Every
// operation takes its fate from the next byte of a script (a plain
// completion once the script runs out): low nibble 0 fails it, 1 stalls
// it far past any stage deadline so its reply arrives stale, 2 holds its
// reply back until everything else in the run has fired, anything else
// completes it; the high nibble adds to its duration. It implements
// Timer, so stalls and held replies trip stage deadlines. Events fire in
// time order, ties in issue order. It records every successful reply it
// delivers, so a test can check the trace against what the backend
// reported, and it calls every done it is handed exactly once, inside
// Run: held replies last, when the queue has run dry. Like every backend
// it never calls back outside Run (see Backend).
type scriptBackend struct {
	workers int
	script  []byte
	pos     int
	now     float64
	seq     int
	queue   []scriptEvent
	held    []scriptEvent
	armed   map[TimerID]bool
	timerID TimerID
	// issued and delivered count done callbacks handed in and called;
	// outstanding is their difference, peak its maximum.
	issued, delivered, outstanding, peak int
	replies                              map[scriptReply]int
	// events counts the run's engine events (the run's sink); heldEvents
	// counts those the held replies caused.
	events, heldEvents int
}

// EmitPtr makes the backend the run's event sink, so it can tell what
// the held replies changed: every step a reply makes a run take emits an
// event (a record added, a retry, a freed uplink, a dispatch).
func (b *scriptBackend) EmitPtr(*obs.Event) { b.events++ }

// scriptEvent is one pending reply (done != nil) or timer.
type scriptEvent struct {
	at      float64
	seq     int
	done    func(start, end float64, err error)
	fail    bool
	reply   scriptReply
	timer   TimerID
	timerFn func(TimerID)
}

// scriptReply identifies one successful reply: the stage, the worker, the
// bytes or load, and the timeline handed to done.
type scriptReply struct {
	stage              chunkState
	worker             int
	amount, start, end float64
}

func newScriptBackend(workers int, script []byte) *scriptBackend {
	return &scriptBackend{workers: workers, script: script,
		armed: make(map[TimerID]bool), replies: make(map[scriptReply]int)}
}

func (b *scriptBackend) next() byte {
	if b.pos >= len(b.script) {
		return 0xf3 // a plain completion once the script runs out
	}
	b.pos++
	return b.script[b.pos-1]
}

func (b *scriptBackend) schedule(ev scriptEvent) {
	ev.seq = b.seq
	b.seq++
	b.queue = append(b.queue, ev)
}

func (b *scriptBackend) issue(stage chunkState, w int, amount float64, done func(start, end float64, err error)) {
	b.issued++
	b.outstanding++
	b.peak = max(b.peak, b.outstanding)
	c := b.next()
	ev := scriptEvent{at: b.now + 1 + float64(c>>4), done: done,
		reply: scriptReply{stage: stage, worker: w, amount: amount, start: b.now}}
	switch c & 0xf {
	case 0:
		ev.fail = true
	case 1:
		ev.at += 5000
	case 2:
		b.held = append(b.held, ev)
		return
	}
	b.schedule(ev)
}

func (b *scriptBackend) Now() float64 { return b.now }
func (b *scriptBackend) Workers() int { return b.workers }
func (b *scriptBackend) Transfer(w int, bytes float64, done func(start, end float64, err error)) {
	b.issue(stateTransferring, w, bytes, done)
}
func (b *scriptBackend) Execute(w int, size float64, _ bool, done func(start, end float64, err error)) {
	b.issue(stateComputing, w, size, done)
}
func (b *scriptBackend) ReturnOutput(w int, bytes float64, done func(start, end float64, err error)) {
	b.issue(stateReturning, w, bytes, done)
}

func (b *scriptBackend) AfterFunc(d float64, fn func(TimerID)) TimerID {
	b.timerID++
	b.armed[b.timerID] = true
	b.schedule(scriptEvent{at: b.now + d, timer: b.timerID, timerFn: fn})
	return b.timerID
}

func (b *scriptBackend) CancelTimer(id TimerID) { delete(b.armed, id) }

// Run fires events in (time, issue) order; whenever none remain, it
// delivers the replies held so far, in the order they were held.
func (b *scriptBackend) Run() {
	for len(b.queue) > 0 || len(b.held) > 0 {
		if len(b.queue) == 0 {
			held, mark := b.held, b.events
			b.held = nil
			for _, ev := range held {
				b.now++
				b.deliver(ev)
			}
			b.heldEvents += b.events - mark
			continue
		}
		i := 0
		for j, ev := range b.queue {
			if ev.at < b.queue[i].at || ev.at == b.queue[i].at && ev.seq < b.queue[i].seq {
				i = j
			}
		}
		ev := b.queue[i]
		b.queue = slices.Delete(b.queue, i, i+1)
		b.now = ev.at
		if ev.done == nil {
			if b.armed[ev.timer] {
				delete(b.armed, ev.timer)
				ev.timerFn(ev.timer)
			}
			continue
		}
		b.deliver(ev)
	}
}

func (b *scriptBackend) deliver(ev scriptEvent) {
	b.outstanding--
	b.delivered++
	if ev.fail {
		ev.done(ev.reply.start, b.now, errInjected)
		return
	}
	ev.reply.end = b.now
	b.replies[ev.reply]++
	ev.done(ev.reply.start, ev.reply.end, nil)
}

// scriptRun is one run on a scriptBackend: its outcome, its records and
// the backend.
type scriptRun struct {
	b    *scriptBackend
	app  *model.Application
	err  error
	recs []trace.Record
}

// runScript executes one blind run of the script on a fresh
// scriptBackend — on arena when non-nil, on a pooled workspace otherwise
// — under a retry policy whose attempt bound is never reached. The
// script's first three bytes pick the worker count, the chunk count and
// whether outputs return.
func runScript(t *testing.T, script []byte, arena *Arena) scriptRun {
	t.Helper()
	var head [3]byte
	copy(head[:], script)
	b := newScriptBackend(1+int(head[0]%4), script[min(3, len(script)):])
	app := &model.Application{Name: "script", TotalLoad: 100, BytesPerUnit: 3,
		OutputBytesPerUnit: units.Bytes(head[2] % 2), UnitCost: 1, MinChunk: 1}
	tr, err := Execute(context.Background(), Request{
		Backend: b, Algorithm: dls.NewSimple(1 + int(head[1]%12)), App: app, Arena: arena,
		Config: Config{Retry: &RetryPolicy{MaxAttempts: math.MaxInt32}, Events: b},
	})
	return scriptRun{b: b, app: app, err: err, recs: slices.Clone(tr.Records())}
}

// check asserts what every closure-form run must satisfy: the load is
// conserved or the run fails with a typed error; every successful chunk's
// transfer and compute timeline is one the backend reported for that
// worker and amount (a completion delivered to the wrong operation
// breaks this); each done was called once; and the held replies, stale by
// the time they arrive, changed nothing.
func (r scriptRun) check(t *testing.T) {
	t.Helper()
	b := r.b
	if b.outstanding != 0 || b.issued != b.delivered {
		t.Fatalf("%d done callbacks handed out, %d called", b.issued, b.delivered)
	}
	if b.heldEvents != 0 {
		t.Fatalf("replies held to the end of the run changed it (%d events)", b.heldEvents)
	}
	if r.err != nil {
		if !errors.Is(r.err, ErrAllWorkersLost) && !errors.Is(r.err, ErrStalled) {
			t.Fatalf("untyped run error: %v", r.err)
		}
		return
	}
	var ok []trace.Record
	for _, rec := range r.recs {
		if rec.Failed {
			continue
		}
		ok = append(ok, rec)
		send := scriptReply{stateTransferring, rec.Worker, rec.Size * float64(r.app.BytesPerUnit), rec.SendStart, rec.SendEnd}
		comp := scriptReply{stateComputing, rec.Worker, rec.Size, rec.CompStart, rec.CompEnd}
		if b.replies[send] == 0 || b.replies[comp] == 0 {
			t.Fatalf("chunk %d attempt %d has a timeline the backend never reported: %+v", rec.Chunk, rec.Attempt, rec)
		}
	}
	slices.SortFunc(ok, func(a, b trace.Record) int { return cmp.Compare(a.Offset, b.Offset) })
	at := 0.0
	for _, rec := range ok {
		if math.Abs(rec.Offset-at) > 1e-9 {
			t.Fatalf("chunk %d starts at %v, want %v: load lost or counted twice", rec.Chunk, rec.Offset, at)
		}
		at += rec.Size
	}
	if math.Abs(at-float64(r.app.TotalLoad)) > 1e-9 {
		t.Fatalf("completed %v of %v load without an error", at, r.app.TotalLoad)
	}
}

// checkCells asserts that after the run every completion cell of the
// arena's workspace is back on its free list, once, and that no more were
// made than operations were ever in flight at once.
func checkCells(t *testing.T, arena *Arena, peak int) {
	t.Helper()
	free := arena.e.cellFree
	seen := make(map[*opCell]bool, len(free))
	for _, c := range free {
		if seen[c] {
			t.Fatal("a completion cell is on the free list twice")
		}
		seen[c] = true
	}
	if len(free) != peak {
		t.Fatalf("%d cells on the free list after the run; %d operations were in flight at the peak", len(free), peak)
	}
}

// TestClosureBackendStaleCompletionIsDropped: the first transfer stalls
// past its deadline, the engine retries the chunk, and the stalled reply
// arrives long after the retry finished. It must be dropped, and a
// thousand runs on one arena must not grow the cell free list.
func TestClosureBackendStaleCompletionIsDropped(t *testing.T) {
	// Two workers, four chunks, outputs returned; the first operation
	// stalls and every later one completes.
	script := []byte{1, 3, 1, 0x01}
	arena := NewArena()
	r := runScript(t, script, arena)
	if r.err != nil {
		t.Fatal(r.err)
	}
	r.check(t)
	checkCells(t, arena, r.b.peak)
	var failed, retried bool
	for _, rec := range r.recs {
		failed = failed || rec.Chunk == 1 && rec.Failed
		retried = retried || rec.Chunk == 1 && !rec.Failed && rec.Attempt == 2
		if rec.SendEnd >= 5000 || rec.OutputEnd >= 5000 {
			t.Fatalf("the stale reply reached the trace: %+v", rec)
		}
	}
	if !failed || !retried {
		t.Fatalf("chunk 1 was not abandoned and retried: %+v", r.recs)
	}
	if r.b.now < 5000 {
		t.Fatalf("the stalled reply was never delivered (clock %v)", r.b.now)
	}
	cells := len(arena.e.cellFree)
	for i := 0; i < 1000; i++ {
		runScript(t, script, arena).check(t)
	}
	if got := len(arena.e.cellFree); got != cells {
		t.Fatalf("the cell free list grew from %d to %d over 1000 runs", cells, got)
	}
}

// FuzzClosureBackendCompletions drives the engine's closure bridge with a
// script that picks the shape of the run and every operation's order,
// delay, failure, stall and reply held to the end of the run. Every run
// must conserve the load or fail with a typed error, every completion
// must reach the operation it belongs to, a held reply must change
// nothing, and after the run no cell may be missing or doubled. The same
// script without an arena must produce the same trace.
func FuzzClosureBackendCompletions(f *testing.F) {
	f.Add([]byte{1, 3, 1, 0x01})
	f.Add([]byte{3, 11, 0, 0x33, 0x02, 0x45, 0x10, 0x01, 0x72})
	f.Add([]byte{2, 7, 1, 0x00, 0x00, 0x21, 0x02, 0x02, 0x11, 0xf4, 0x03})
	f.Add([]byte{0, 0, 0, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			return
		}
		arena := NewArena()
		r := runScript(t, script, arena)
		r.check(t)
		checkCells(t, arena, r.b.peak)
		pooled := runScript(t, script, nil)
		pooled.check(t)
		if !slices.Equal(pooled.recs, r.recs) || (pooled.err == nil) != (r.err == nil) {
			t.Fatalf("the run differs without an arena: err %v / %v", pooled.err, r.err)
		}
	})
}

// TestPooledWorkspacesUnderConcurrentRuns runs arena-less executions
// from several goroutines at once, so workspaces pass between goroutines
// through the pool, each run taking its held replies at its end. Every
// run must match the same script's run on a private arena.
func TestPooledWorkspacesUnderConcurrentRuns(t *testing.T) {
	scripts := [][]byte{
		{1, 3, 1, 0x01},
		{3, 11, 0, 0x33, 0x02, 0x45, 0x10, 0x01, 0x72},
		{2, 7, 1, 0x00, 0x00, 0x21, 0x02, 0x02, 0x11, 0xf4, 0x03},
		{0, 5, 1, 0x12, 0x02, 0x22, 0x32},
	}
	want := make([]scriptRun, len(scripts))
	for i, s := range scripts {
		want[i] = runScript(t, s, NewArena())
		want[i].check(t)
	}
	const goroutines, runs = 4, 50
	got := make([][]scriptRun, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got[g] = append(got[g], runScript(t, scripts[(g+i)%len(scripts)], nil))
			}
		}()
	}
	wg.Wait()
	for g, rs := range got {
		for i, r := range rs {
			r.check(t)
			w := want[(g+i)%len(scripts)]
			if !slices.Equal(r.recs, w.recs) || (r.err == nil) != (w.err == nil) {
				t.Fatalf("goroutine %d run %d differs from the arena run of its script", g, i)
			}
		}
	}
}
