package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/transport"
)

// fragmentSize is the Store fragment granularity: Transfer moves a
// chunk's bytes in frames of at most this many.
const fragmentSize = 256 << 10

// zeros is the payload of every Store fragment. It is never written:
// the worker counts the bytes without reading meaning into them, and
// the transport copies them into its frame.
var zeros [fragmentSize]byte

// Config carries the backend's cross-cutting dependencies. The zero
// value is valid: no metrics, no tracing.
type Config struct {
	// Metrics, when set, receives the client-side frame/byte counters
	// for every worker connection.
	Metrics *obs.TransportMetrics
}

// NetModel imposes transfer costs on the data path so that scheduling
// effects are observable even when master and workers share one machine:
// each transfer sleeps Latency, then paces writes at Bandwidth. Zero
// values mean "as fast as the loopback goes".
type NetModel struct {
	Latency   time.Duration
	Bandwidth float64 // bytes per second; 0 = unlimited
}

// WorkerConn describes one worker the backend drives.
type WorkerConn struct {
	Addr string
	Net  NetModel
}

// Backend is the live engine.Backend: real RPC, real bytes, real CPU.
//
// Operation failures (broken connection, worker crash, RPC timeout) are
// reported per-operation through the done callbacks, so the engine's
// retry layer can re-dispatch the chunk to a surviving worker instead
// of the whole run dying with the first worker.
//
// Every operation runs on a goroutine of its own, but the backend keeps
// the engine's callback contract (see engine.Backend): a completion
// that arrives before Run is entered is held, and Run delivers it on
// entry; every done and timer firing runs under one callback mutex;
// and a timer that fires after Run returned — or after it was
// cancelled — is dropped. No operation goroutine waits for Run, so a
// backend closed without ever running leaves none behind. A Backend
// serves one Run.
type Backend struct {
	t0 time.Time

	mu      sync.Mutex
	clients []*transport.Conn
	nets    []NetModel
	stopped bool
	closed  bool
	stopCh  chan struct{}
	wg      sync.WaitGroup

	// cbMu serializes callbacks and guards the rest: held keeps the
	// callbacks that arrived before Run was entered, entered and
	// returned bracket Run.
	cbMu              sync.Mutex
	held              []func()
	entered, returned bool

	// Wall-clock deadline timers armed through the engine.Timer
	// interface, keyed by the ids AfterFunc hands out.
	timerMu  sync.Mutex
	timerSeq uint64
	timers   map[uint64]*time.Timer

	// CallTimeout bounds each RPC round-trip; a call that exceeds it
	// fails with a deadline error (the transport retires its request
	// id, so the connection survives and a late reply is dropped).
	// 0 disables the bound.
	CallTimeout time.Duration

	// Trace state installed by SetTrace before the run starts: every
	// worker operation records a span under parent, and frame calls
	// carry the trace context in their headers. All nil/zero when
	// tracing is off.
	tracer      *otrace.Collector
	traceID     otrace.TraceID
	traceParent otrace.SpanID
}

// Dial connects to the given workers. The optional cfg (at most one)
// threads metrics into the connections; omitting it keeps the
// zero-dependency behaviour.
func Dial(workers []WorkerConn, cfg ...Config) (*Backend, error) {
	var c0 Config
	if len(cfg) > 0 {
		c0 = cfg[0]
	}
	b := &Backend{
		t0:     time.Now(),
		stopCh: make(chan struct{}),
	}
	for _, w := range workers {
		c, err := transport.Dial(w.Addr, transport.Config{Metrics: c0.Metrics})
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("live: dial %s: %w", w.Addr, err)
		}
		b.mu.Lock()
		b.clients = append(b.clients, c)
		b.nets = append(b.nets, w.Net)
		b.mu.Unlock()
	}
	if b.Workers() == 0 {
		return nil, fmt.Errorf("live: no workers")
	}
	return b, nil
}

// Cluster starts n in-process workers (each on its own loopback TCP
// port) and a backend connected to them. The returned cleanup stops
// everything.
func Cluster(n, workPerUnit int, netModel NetModel) (*Backend, []*WorkerService, func(), error) {
	var services []*WorkerService
	var stops []func()
	var conns []WorkerConn
	cleanup := func() {
		for _, s := range stops {
			s()
		}
	}
	for i := 0; i < n; i++ {
		svc := NewWorkerService(workPerUnit, 1)
		addr, stop, err := Serve(svc)
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		services = append(services, svc)
		stops = append(stops, stop)
		conns = append(conns, WorkerConn{Addr: addr, Net: netModel})
	}
	b, err := Dial(conns)
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	all := func() { b.Close(); cleanup() }
	return b, services, all, nil
}

// Close shuts every worker connection down. It is idempotent and safe
// to race with in-flight operations: connection teardown happens under
// the backend mutex, and calls racing a Close observe RPC errors through
// their own done callbacks. The error is always nil (a transport.Conn
// close cannot fail); the signature is io.Closer's.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for i, c := range b.clients {
		if c != nil {
			c.Close()
			b.clients[i] = nil
		}
	}
	return nil
}

// Cancel aborts the backend: it fires a best-effort Worker.Abort at
// every still-connected worker (so a compute loop mid-chunk stops
// burning CPU instead of running to completion), then closes every
// connection so the in-flight Store/Compute/Fetch RPCs fail and their
// done callbacks release the engine's accounting. Abort RPCs that do
// not answer within a second are abandoned — a wedged worker must not
// delay cancellation of the rest.
func (b *Backend) Cancel() {
	b.mu.Lock()
	clients := make([]*transport.Conn, len(b.clients))
	copy(clients, b.clients)
	b.mu.Unlock()
	var wg sync.WaitGroup
	for _, c := range clients {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(c *transport.Conn) {
			defer wg.Done()
			c.CallTimeout(methodAbort, &AbortArgs{}, &AbortReply{}, time.Second)
		}(c)
	}
	wg.Wait()
	b.Close()
}

// client returns worker w's connection, or an error once the backend is
// closed.
func (b *Backend) client(w int) (*transport.Conn, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.clients[w] == nil {
		return nil, fmt.Errorf("live: worker %d connection closed", w)
	}
	return b.clients[w], nil
}

// SetTrace installs the trace context for the coming run: worker
// operations record "worker.store"/"worker.compute"/"worker.fetch"
// spans parented under parent, and calls propagate the trace id to the
// worker in their frame headers. Must be called before the engine
// starts driving the backend (operation goroutines read the fields
// without locks; the goroutine-start edge orders the writes).
func (b *Backend) SetTrace(c *otrace.Collector, tid otrace.TraceID, parent otrace.SpanID) {
	b.tracer = c
	b.traceID = tid
	b.traceParent = parent
}

// opSpan begins one worker-operation span; inert when tracing is off
// (nil collector or zero trace id make Begin return an inert span).
func (b *Backend) opSpan(name string) otrace.Span {
	return b.tracer.Begin(b.traceID, b.traceParent, name)
}

// traceContext is the header context frame calls carry to the worker.
func (b *Backend) traceContext() transport.TraceContext {
	return transport.TraceContext{Trace: uint64(b.traceID), Span: uint64(b.traceParent)}
}

// Now implements engine.Backend: seconds since the backend started.
func (b *Backend) Now() float64 { return time.Since(b.t0).Seconds() }

// Workers implements engine.Backend.
func (b *Backend) Workers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.clients)
}

// Run implements engine.Backend: deliver the callbacks held until now,
// block until Stop, then drain the operations in flight. Every
// completion is delivered before Run returns.
func (b *Backend) Run() {
	b.cbMu.Lock()
	b.entered = true
	for _, fn := range b.held {
		fn()
	}
	b.held = nil
	b.cbMu.Unlock()
	<-b.stopCh
	b.wg.Wait()
	b.cbMu.Lock()
	b.returned = true
	b.cbMu.Unlock()
}

// deliver calls fn under the callback contract: one callback at a time,
// held for Run if it is not yet entered, and dropped once Run returned.
func (b *Backend) deliver(fn func()) {
	b.cbMu.Lock()
	defer b.cbMu.Unlock()
	switch {
	case !b.entered:
		b.held = append(b.held, fn)
	case !b.returned:
		fn()
	}
}

// complete delivers one operation's done.
func (b *Backend) complete(done func(start, end float64, err error), start, end float64, err error) {
	b.deliver(func() { done(start, end, err) })
}

// Stop implements engine.Stopper.
func (b *Backend) Stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.stopped {
		b.stopped = true
		close(b.stopCh)
	}
}

// AfterFunc implements engine.Timer on the wall clock. The returned id
// is valid for CancelTimer until the timer fires. A firing is delivered
// like a completion (see deliver), and only while the timer is still in
// the table: a firing that lost the race with CancelTimer — which the
// engine calls from inside a callback — is dropped.
func (b *Backend) AfterFunc(d float64, fn func(uint64)) uint64 {
	b.timerMu.Lock()
	b.timerSeq++
	id := b.timerSeq
	if b.timers == nil {
		b.timers = make(map[uint64]*time.Timer)
	}
	t := time.AfterFunc(time.Duration(d*float64(time.Second)), func() {
		b.deliver(func() {
			b.timerMu.Lock()
			_, armed := b.timers[id]
			delete(b.timers, id)
			b.timerMu.Unlock()
			if armed {
				fn(id)
			}
		})
	})
	b.timers[id] = t
	b.timerMu.Unlock()
	return id
}

// CancelTimer implements engine.Timer: it stops the timer and drops its
// table entry. Zero, fired, or stale ids are no-ops.
func (b *Backend) CancelTimer(id uint64) {
	b.timerMu.Lock()
	if t, ok := b.timers[id]; ok {
		t.Stop()
		delete(b.timers, id)
	}
	b.timerMu.Unlock()
}

// call performs one RPC bounded by CallTimeout. The transport retires
// a timed-out request id, so the connection survives a deadline.
func (b *Backend) call(w int, method uint16, args transport.Appender, reply transport.Decoder) error {
	c, err := b.client(w)
	if err != nil {
		return err
	}
	err = c.CallTimeoutTrace(method, args, reply, b.CallTimeout, b.traceContext())
	if errors.Is(err, transport.ErrTimeout) {
		return fmt.Errorf("worker %d: exceeded %v deadline: %w", w, b.CallTimeout, err)
	}
	if err != nil {
		return fmt.Errorf("worker %d: %w", w, err)
	}
	return nil
}

// op runs one worker operation on a goroutine of its own: a span named
// span (none when empty), the call, and the delivery of done. A failed
// call reaches done as "live: <what> worker w: <err>"; the engine
// decides whether it is fatal.
func (b *Backend) op(w int, span, what string, done func(start, end float64, err error), call func() error) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		var sp otrace.Span
		if span != "" {
			sp = b.opSpan(span)
		}
		start := b.Now()
		err := call()
		if err != nil {
			err = fmt.Errorf("live: %s worker %d: %w", what, w, err)
		}
		sp.End(err)
		b.complete(done, start, b.Now(), err)
	}()
}

// Transfer implements engine.Backend: move `bytes` of real data to the
// worker over RPC, paced by the worker's network model. The engine
// guarantees serialization (one outstanding Transfer). One span covers
// the whole fragment loop — per-fragment spans would flood the ring on
// large transfers. A worker that acknowledges a fragment with other
// than its length has failed the operation.
func (b *Backend) Transfer(w int, bytes float64, done func(start, end float64, err error)) {
	b.op(w, "worker.store", "store on", done, func() error {
		nm := b.nets[w]
		if nm.Latency > 0 {
			time.Sleep(nm.Latency)
		}
		// The probing round's empty transfers send one empty fragment.
		for remaining := int(bytes); ; {
			n := min(remaining, fragmentSize)
			var reply StoreReply
			if err := b.call(w, methodStore, &StoreArgs{Data: zeros[:n]}, &reply); err != nil {
				return err
			}
			if reply.Received != n {
				return fmt.Errorf("worker %d: stored %d of %d bytes", w, reply.Received, n)
			}
			if nm.Bandwidth > 0 && n > 0 {
				time.Sleep(time.Duration(float64(n) / nm.Bandwidth * float64(time.Second)))
			}
			if remaining -= n; remaining <= 0 {
				return nil
			}
		}
	})
}

// Execute implements engine.Backend: RPC the worker's compute loop.
// FIFO ordering comes from the worker's internal mutex. Probe RPCs stay
// unspanned, matching the engine's decision to keep calibration out of
// the per-chunk latency picture. A worker that reports computing other
// than size units has failed the operation.
func (b *Backend) Execute(w int, size float64, probe bool, done func(start, end float64, err error)) {
	span := "worker.compute"
	if probe {
		span = ""
	}
	b.op(w, span, "compute on", done, func() error {
		var reply ComputeReply
		if err := b.call(w, methodCompute, &ComputeArgs{Units: size, Probe: probe}, &reply); err != nil {
			return err
		}
		if reply.Units != size {
			return fmt.Errorf("worker %d: computed %g units of %g", w, reply.Units, size)
		}
		return nil
	})
}

// ReturnOutput implements engine.Backend: fetch output bytes back. A
// worker that returns other than the requested byte count has failed
// the operation.
func (b *Backend) ReturnOutput(w int, bytes float64, done func(start, end float64, err error)) {
	b.op(w, "worker.fetch", "fetch from", done, func() error {
		var reply FetchReply
		if err := b.call(w, methodFetch, &FetchArgs{Bytes: int(bytes)}, &reply); err != nil {
			return err
		}
		if len(reply.Data) != int(bytes) {
			return fmt.Errorf("worker %d: returned %d of %d output bytes", w, len(reply.Data), int(bytes))
		}
		return nil
	})
}
