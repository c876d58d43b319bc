package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool spreads calls over a fixed set of connections to one address,
// redialing dead slots lazily. With multiplexed connections a handful
// of conns is plenty — the pool exists to spread the per-connection
// windows and write queues across writers, not to serialize calls.
type Pool struct {
	addr string
	cfg  Config
	next atomic.Uint64

	mu     sync.Mutex
	conns  []*Conn
	closed bool
}

// NewPool creates a pool of size connections to addr. Connections are
// dialed lazily on first use, so construction cannot fail.
func NewPool(addr string, size int, cfg Config) *Pool {
	if size <= 0 {
		size = 1
	}
	return &Pool{addr: addr, cfg: cfg.withDefaults(), conns: make([]*Conn, size)}
}

// Call issues a request on the next connection round-robin, dialing or
// redialing the slot if its connection is down.
func (p *Pool) Call(method uint16, args Appender, reply Decoder) error {
	return p.call(method, args, reply, 0, TraceContext{})
}

// CallTrace is Call with a trace context carried in the frame header.
func (p *Pool) CallTrace(method uint16, args Appender, reply Decoder, tc TraceContext) error {
	return p.call(method, args, reply, 0, tc)
}

func (p *Pool) call(method uint16, args Appender, reply Decoder, timeout time.Duration, tc TraceContext) error {
	slot := int(p.next.Add(1)) % len(p.conns)
	c, err := p.conn(slot)
	if err != nil {
		return err
	}
	err = c.CallTimeoutTrace(method, args, reply, timeout, tc)
	if err != nil && !IsRemote(err) && err != ErrTimeout && err != ErrTooLarge {
		// Connection-level failure: drop the slot so the next call
		// redials instead of re-hitting a dead conn.
		p.drop(slot, c)
	}
	return err
}

// conn returns the live connection in slot, dialing if needed.
func (p *Pool) conn(slot int) (*Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if c := p.conns[slot]; c != nil {
		p.cfg.Metrics.PoolHits.Inc()
		return c, nil
	}
	p.cfg.Metrics.PoolMisses.Inc()
	c, err := Dial(p.addr, p.cfg)
	if err != nil {
		return nil, err
	}
	p.conns[slot] = c
	return c, nil
}

// drop clears slot if it still holds c, so concurrent failures on the
// same conn evict it once and a freshly redialed conn is never evicted
// by a stale failure.
func (p *Pool) drop(slot int, c *Conn) {
	p.mu.Lock()
	if p.conns[slot] == c {
		p.conns[slot] = nil
	}
	p.mu.Unlock()
	c.Close()
}

// Close closes every pooled connection. Idempotent and safe to call
// concurrently with in-flight Calls, which fail with ErrClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := p.conns
	p.conns = make([]*Conn, len(conns))
	p.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
	return nil
}
