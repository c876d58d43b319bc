package transport

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"runtime"
	"runtime/debug"
	"sync"

	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
)

// ServerConfig tunes a frame server. The zero value uses the package
// defaults and one worker per CPU.
type ServerConfig struct {
	// Workers is the fixed handler pool size. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the dispatch queue shared by all connections;
	// a full queue fast-rejects with ErrOverloaded. Default
	// DefaultQueueDepth.
	QueueDepth int
	// MaxFrame bounds a single frame. Default DefaultMaxFrame.
	MaxFrame int
	// Metrics, when set, receives transport counters.
	Metrics *obs.TransportMetrics
	// Tracer, when set, records server-side transport spans for traced
	// requests: argument decode time (RegisterTraced handlers) and
	// terminal spans for overload fast-rejects. Nil disables.
	Tracer *otrace.Collector
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.Metrics == nil {
		c.Metrics = nopMetrics
	}
	return c
}

// Handler executes one request: decode args from d, do the work,
// append the reply to b. tc is the request's trace context (zero for
// untraced frames). Returning an error sends an error frame instead
// of b (whatever was appended is discarded). Handlers run on the
// shared worker pool — a handler must not block indefinitely.
type Handler func(tc TraceContext, d *Dec, b []byte) ([]byte, error)

// task is one decoded request frame awaiting a worker.
type task struct {
	sc      *srvConn
	id      uint64
	method  uint16
	tc      TraceContext
	payload *[]byte
}

// Server dispatches frames from any number of connections onto a
// bounded queue drained by a fixed worker pool. There is no goroutine
// per request: concurrency is capped by Workers, and
// load beyond QueueDepth is rejected before any decoding or handler
// work happens.
type Server struct {
	cfg      ServerConfig
	handlers map[uint16]Handler
	queue    chan task
	quit     chan struct{}
	metrics  *obs.TransportMetrics

	mu    sync.Mutex
	conns map[*srvConn]struct{}
	lns   map[net.Listener]struct{}
	done  bool
}

// NewServer creates a server; register handlers before Serve.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		handlers: make(map[uint16]Handler),
		queue:    make(chan task, cfg.QueueDepth),
		quit:     make(chan struct{}),
		metrics:  cfg.Metrics,
		conns:    make(map[*srvConn]struct{}),
		lns:      make(map[net.Listener]struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handle registers the handler for a method id. Not safe to call
// concurrently with Serve.
func (s *Server) Handle(method uint16, h Handler) {
	if _, dup := s.handlers[method]; dup {
		panic("transport: duplicate handler registration")
	}
	s.handlers[method] = h
}

// Register wires a typed request/reply pair to a method id: A and R
// are the arg and reply structs, decoded and encoded via their
// pointer-receiver Decoder/Appender implementations.
func Register[A, R any, PA interface {
	*A
	Decoder
}, PR interface {
	*R
	Appender
}](s *Server, method uint16, fn func(*A, *R) error) {
	RegisterTraced[A, R, PA, PR](s, method, func(_ TraceContext, a *A, r *R) error {
		return fn(a, r)
	})
}

// RegisterTraced is Register for handlers that consume the request's
// trace context. When the server has a Tracer, the argument decode of
// each traced request is recorded as an "rpc.decode" span under the
// caller's span.
func RegisterTraced[A, R any, PA interface {
	*A
	Decoder
}, PR interface {
	*R
	Appender
}](s *Server, method uint16, fn func(TraceContext, *A, *R) error) {
	s.Handle(method, func(tc TraceContext, d *Dec, b []byte) ([]byte, error) {
		var args A
		sp := s.cfg.Tracer.Begin(otrace.TraceID(tc.Trace), otrace.SpanID(tc.Span), "rpc.decode")
		PA(&args).DecodeWire(d)
		sp.End(d.Err())
		if err := d.Err(); err != nil {
			return nil, err
		}
		var reply R
		if err := fn(tc, &args, &reply); err != nil {
			return nil, err
		}
		return PR(&reply).AppendWire(b), nil
	})
}

// Serve accepts connections on ln until Close. It returns the accept
// error, or nil after Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.serveConn(nc)
	}
}

// serveConn starts the read and write loops for one connection.
func (s *Server) serveConn(nc net.Conn) *srvConn {
	sc := &srvConn{
		srv: s,
		nc:  nc,
		snd: &sender{
			// Queue headroom beyond the dispatch queue: a full send
			// queue means the peer stopped reading, handled in send().
			ch:      make(chan *[]byte, s.cfg.QueueDepth+DefaultWindow),
			quit:    make(chan struct{}),
			metrics: s.metrics,
		},
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		nc.Close()
		return nil
	}
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	go sc.snd.loop(nc, sc.teardown)
	go sc.readLoop()
	return sc
}

// worker drains the dispatch queue until Close.
func (s *Server) worker() {
	for {
		select {
		case t := <-s.queue:
			s.metrics.InFlight.Inc()
			s.handle(t)
			s.metrics.InFlight.Dec()
		case <-s.quit:
			return
		}
	}
}

func (s *Server) handle(t task) {
	d := NewDec(*t.payload)
	h := s.handlers[t.method]
	buf := getBuf()
	*buf = beginFrame(*buf, t.id, kindResponse)
	var err error
	if h == nil {
		err = errMalformed
	} else {
		*buf, err = callHandler(h, t, d, *buf)
	}
	putBuf(t.payload)
	if err != nil {
		*buf = (*buf)[:0]
		*buf = beginFrame(*buf, t.id, kindError)
		*buf = AppendString(*buf, err.Error())
	}
	*buf = finishFrame(*buf)
	if len(*buf)-4 > s.cfg.MaxFrame {
		*buf = (*buf)[:0]
		*buf = beginFrame(*buf, t.id, kindError)
		*buf = AppendString(*buf, ErrTooLarge.Error())
		*buf = finishFrame(*buf)
	}
	t.sc.send(buf)
}

// callHandler runs h. A handler that panics fails its own call with an
// ordinary error frame, and the stack is logged; the worker, the
// connection and everything the process holds for other callers live on.
func callHandler(h Handler, t task, d *Dec, b []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("transport: handler for method %d panicked: %v\n%s", t.method, r, debug.Stack())
			out, err = b, fmt.Errorf("transport: handler panicked: %v", r)
		}
	}()
	return h(t.tc, d, b)
}

// reject answers id with an error frame without running any handler.
func (s *Server) reject(sc *srvConn, id uint64, err error) {
	buf := getBuf()
	*buf = beginFrame(*buf, id, kindError)
	*buf = AppendString(*buf, err.Error())
	*buf = finishFrame(*buf)
	sc.send(buf)
}

// Close stops the listeners, tears down every connection, and releases
// the worker pool. Queued-but-unserved requests are dropped; their
// clients see the connection close. Close does NOT wait for handlers
// already executing — a wedged handler must not wedge shutdown; each
// worker exits after its current task. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return nil
	}
	s.done = true
	lns := s.lns
	conns := s.conns
	s.lns = make(map[net.Listener]struct{})
	s.conns = make(map[*srvConn]struct{})
	s.mu.Unlock()

	close(s.quit)
	for ln := range lns {
		ln.Close()
	}
	for sc := range conns {
		sc.teardown(ErrClosed)
	}
	return nil
}

func (s *Server) dropConn(sc *srvConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// srvConn is one accepted connection.
type srvConn struct {
	srv  *Server
	nc   net.Conn
	snd  *sender
	once sync.Once
}

func (sc *srvConn) readLoop() {
	fr := &frameReader{
		br:      bufio.NewReaderSize(sc.nc, 64<<10),
		max:     sc.srv.cfg.MaxFrame,
		metrics: sc.srv.metrics,
	}
	for {
		id, kind, tc, payload, err := fr.next()
		if err != nil {
			var ov *errOversized
			if asOversized(err, &ov) {
				// Too big to serve, small enough to skip: reject this
				// request and keep the connection.
				sc.srv.reject(sc, ov.id, ErrTooLarge)
				continue
			}
			sc.teardown(err)
			return
		}
		if kind != kindRequest {
			putBuf(payload)
			sc.teardown(errMalformed)
			return
		}
		d := NewDec(*payload)
		method := uint16(d.Uvarint())
		if d.Err() != nil {
			putBuf(payload)
			sc.teardown(errMalformed)
			return
		}
		*payload = (*payload)[len(*payload)-d.Len():]
		select {
		case sc.srv.queue <- task{sc: sc, id: id, method: method, tc: tc, payload: payload}:
		case <-sc.srv.quit:
			putBuf(payload)
			sc.teardown(ErrClosed)
			return
		default:
			// Dispatch queue full: shed this request immediately, no
			// decode, no handler, so overload costs almost nothing. A
			// traced request still gets a terminal span — a trace must
			// never just stop at an overloaded server.
			putBuf(payload)
			sc.srv.metrics.Overloaded.Inc()
			if tr := sc.srv.cfg.Tracer; tr != nil && tc.Valid() {
				tr.RecordSince(otrace.TraceID(tc.Trace), otrace.SpanID(tc.Span),
					"rpc.reject_overloaded", tr.Clock(), ErrOverloaded)
			}
			sc.srv.reject(sc, id, ErrOverloaded)
		}
	}
}

// send queues a response frame; a peer that stopped reading long
// enough to fill the send queue is torn down rather than allowed to
// wedge a worker.
func (sc *srvConn) send(buf *[]byte) {
	select {
	case sc.snd.ch <- buf:
	case <-sc.snd.quit:
		putBuf(buf)
	default:
		putBuf(buf)
		sc.teardown(ErrClosed)
	}
}

func (sc *srvConn) teardown(error) {
	sc.once.Do(func() {
		close(sc.snd.quit)
		sc.nc.Close()
		sc.srv.dropConn(sc)
	})
}
