package transport

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"apstdv/internal/obs"
)

// Config tunes a client connection (and, through Pool, every pooled
// connection). The zero value uses the package defaults.
type Config struct {
	// Window bounds in-flight calls per connection; callers block for a
	// slot. Default DefaultWindow.
	Window int
	// MaxFrame bounds a single frame in either direction. Default
	// DefaultMaxFrame.
	MaxFrame int
	// Metrics, when set, receives frame/byte/in-flight counts. A nil
	// TransportMetrics is valid and records nothing.
	Metrics *obs.TransportMetrics
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.Metrics == nil {
		c.Metrics = nopMetrics
	}
	return c
}

// nopMetrics backs nil Config.Metrics: all counters nil, and the obs
// counter types record nothing on a nil receiver.
var nopMetrics = &obs.TransportMetrics{}

// call is one in-flight request awaiting its response frame.
type call struct {
	reply Decoder // nil when the caller discards the reply
	done  chan error
}

// Conn is one multiplexed client connection. Many goroutines may Call
// concurrently; requests pipeline onto the single connection and
// responses are matched back by request id.
type Conn struct {
	nc      net.Conn
	cfg     Config
	snd     *sender
	window  chan struct{}
	nextID  atomic.Uint64
	metrics *obs.TransportMetrics

	mu      sync.Mutex
	pending map[uint64]*call
	err     error // first fatal error; set before quit closes
	closed  bool
}

// Dial connects to a frame server at addr.
func Dial(addr string, cfg Config) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc, cfg), nil
}

// NewConn runs the frame protocol over an established connection.
func NewConn(nc net.Conn, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		nc:      nc,
		cfg:     cfg,
		window:  make(chan struct{}, cfg.Window),
		metrics: cfg.Metrics,
		pending: make(map[uint64]*call),
		snd: &sender{
			// One slot per window entry: a frame is queued only while
			// its call holds a window slot, so send never blocks.
			ch:      make(chan *[]byte, cfg.Window),
			quit:    make(chan struct{}),
			metrics: cfg.Metrics,
		},
	}
	go c.snd.loop(nc, c.teardown)
	go c.readLoop()
	return c
}

// Call issues one request and blocks until its response, a connection
// failure, or — if the window is exhausted — a free slot. A nil reply
// discards the response payload. Handler-side failures return as
// *RemoteError (run through errcode.Decode to recover sentinels).
func (c *Conn) Call(method uint16, args Appender, reply Decoder) error {
	return c.CallTimeout(method, args, reply, 0)
}

// CallTimeout is Call with a deadline. On timeout the call is
// abandoned — its id is retired and the eventual response dropped —
// but the connection stays healthy.
func (c *Conn) CallTimeout(method uint16, args Appender, reply Decoder, timeout time.Duration) error {
	return c.CallTimeoutTrace(method, args, reply, timeout, TraceContext{})
}

// CallTimeoutTrace is CallTimeout with a trace context propagated in
// the frame header (see the package doc); a zero tc costs nothing on
// the wire.
func (c *Conn) CallTimeoutTrace(method uint16, args Appender, reply Decoder, timeout time.Duration, tc TraceContext) error {
	// Acquire a window slot for the lifetime of the call.
	var timer *time.Timer
	var expired <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case c.window <- struct{}{}:
	case <-c.snd.quit:
		return c.fatalErr()
	case <-expired:
		return ErrTimeout
	}
	defer func() { <-c.window }()
	c.metrics.InFlight.Inc()
	defer c.metrics.InFlight.Dec()

	id := c.nextID.Add(1)
	cl := &call{reply: reply, done: make(chan error, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.fatalErr()
	}
	c.pending[id] = cl
	c.mu.Unlock()

	buf := getBuf()
	*buf = beginTracedFrame(*buf, id, kindRequest, tc)
	*buf = AppendUvarint(*buf, uint64(method))
	if args != nil {
		*buf = args.AppendWire(*buf)
	}
	*buf = finishFrame(*buf)
	if len(*buf)-4 > c.cfg.MaxFrame {
		putBuf(buf)
		c.abandon(id)
		return ErrTooLarge
	}
	if err := c.snd.send(buf); err != nil {
		c.abandon(id)
		return c.fatalErr()
	}

	select {
	case err := <-cl.done:
		return err
	case <-expired:
		c.abandon(id)
		return ErrTimeout
	}
}

// abandon retires a pending id so a late response is dropped.
func (c *Conn) abandon(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

func (c *Conn) readLoop() {
	fr := &frameReader{
		br:      bufio.NewReaderSize(c.nc, 64<<10),
		max:     c.cfg.MaxFrame,
		metrics: c.metrics,
	}
	for {
		id, kind, _, payload, err := fr.next()
		if err != nil {
			var ov *errOversized
			if asOversized(err, &ov) {
				// An oversized response fails its call; the stream is
				// still framed, so the connection survives.
				c.finish(ov.id, func(cl *call) error { return ErrTooLarge })
				continue
			}
			c.teardown(err)
			return
		}
		switch kind {
		case kindResponse:
			d := NewDec(*payload)
			c.finish(id, func(cl *call) error {
				if cl.reply != nil {
					cl.reply.DecodeWire(d)
					return d.Err()
				}
				return nil
			})
		case kindError:
			d := NewDec(*payload)
			msg := d.String()
			c.finish(id, func(cl *call) error {
				if d.Err() != nil {
					return d.Err()
				}
				return &RemoteError{Msg: msg}
			})
		default:
			// A request frame from a server: protocol violation.
			putBuf(payload)
			c.teardown(errMalformed)
			return
		}
		putBuf(payload)
	}
}

// finish completes the pending call id with the result of f. Late or
// unknown ids — abandoned by timeout — are dropped silently.
func (c *Conn) finish(id uint64, f func(*call) error) {
	c.mu.Lock()
	cl, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if ok {
		cl.done <- f(cl)
	}
}

// teardown records the first fatal error, fails every pending call,
// and releases both loops. Safe to call multiple times and
// concurrently.
func (c *Conn) teardown(err error) {
	if err == nil || err == io.EOF {
		err = ErrClosed
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()

	close(c.snd.quit)
	c.nc.Close()
	for _, cl := range pending {
		cl.done <- err
	}
}

func (c *Conn) fatalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// Close shuts the connection down, failing in-flight calls with
// ErrClosed. Idempotent.
func (c *Conn) Close() error {
	c.teardown(ErrClosed)
	return nil
}

// asOversized is errors.As specialized to the concrete per-frame error
// (avoids the reflection path on the hot read loop).
func asOversized(err error, target **errOversized) bool {
	ov, ok := err.(*errOversized)
	if ok {
		*target = ov
	}
	return ok
}
