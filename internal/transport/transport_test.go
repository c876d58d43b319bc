package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apstdv/internal/errcode"
)

// echoArgs/echoReply are the test message pair.
type echoArgs struct {
	Text string
	N    int64
	F    float64
}

func (a *echoArgs) AppendWire(b []byte) []byte {
	b = AppendString(b, a.Text)
	b = AppendVarint(b, a.N)
	return AppendF64(b, a.F)
}

func (a *echoArgs) DecodeWire(d *Dec) {
	a.Text = d.String()
	a.N = d.Varint()
	a.F = d.F64()
}

type echoReply struct {
	Text string
	N    int64
	F    float64
}

func (r *echoReply) AppendWire(b []byte) []byte {
	b = AppendString(b, r.Text)
	b = AppendVarint(b, r.N)
	return AppendF64(b, r.F)
}

func (r *echoReply) DecodeWire(d *Dec) {
	r.Text = d.String()
	r.N = d.Varint()
	r.F = d.F64()
}

const (
	methodEcho  = 1
	methodFail  = 2
	methodSlow  = 3
	methodBig   = 4
	methodBlock = 5
)

var errBoom = errcode.New("boom_test", "handler exploded")

// newTestServer starts a frame server with the echo handler set and
// returns its address.
func newTestServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	s := NewServer(cfg)
	Register[echoArgs, echoReply](s, methodEcho, func(a *echoArgs, r *echoReply) error {
		r.Text, r.N, r.F = a.Text, a.N, a.F
		return nil
	})
	Register[echoArgs, echoReply](s, methodFail, func(a *echoArgs, r *echoReply) error {
		return errBoom
	})
	Register[echoArgs, echoReply](s, methodSlow, func(a *echoArgs, r *echoReply) error {
		time.Sleep(50 * time.Millisecond)
		r.Text = a.Text
		return nil
	})
	Register[echoArgs, echoReply](s, methodBig, func(a *echoArgs, r *echoReply) error {
		r.Text = string(make([]byte, 1<<20))
		return nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	args := &echoArgs{Text: "hello", N: -42, F: 3.25}
	var reply echoReply
	if err := c.Call(methodEcho, args, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Text != "hello" || reply.N != -42 || reply.F != 3.25 {
		t.Fatalf("reply = %+v", reply)
	}
}

// A handler error must surface as *RemoteError carrying the message,
// and errcode.Decode must re-attach the sentinel.
func TestCallRemoteError(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	callErr := c.Call(methodFail, &echoArgs{}, &echoReply{})
	if callErr == nil {
		t.Fatal("want error")
	}
	if !IsRemote(callErr) {
		t.Fatalf("want remote error, got %T: %v", callErr, callErr)
	}
	if !errors.Is(errcode.Decode(callErr), errBoom) {
		t.Fatalf("errcode.Decode did not recover sentinel from %q", callErr)
	}
}

// Concurrent calls over one connection must multiplex: all succeed,
// each reply matched to its request.
func TestConcurrentCallsMultiplex(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{Workers: 4})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const calls = 200
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			args := &echoArgs{Text: fmt.Sprintf("msg-%d", i), N: int64(i)}
			var reply echoReply
			if err := c.Call(methodEcho, args, &reply); err != nil {
				errs <- err
				return
			}
			if reply.Text != args.Text || reply.N != args.N {
				errs <- fmt.Errorf("call %d got reply %+v", i, reply)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// With a one-deep dispatch queue and a slow handler, excess load must
// fast-reject with ErrOverloaded — typed, via errcode.
func TestServerOverloadFastReject(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{Workers: 1, QueueDepth: 1})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const calls = 32
	var overloaded, ok atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := c.Call(methodSlow, &echoArgs{Text: "x"}, &echoReply{})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(errcode.Decode(err), ErrOverloaded):
				overloaded.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if overloaded.Load() == 0 {
		t.Error("no call was fast-rejected with ErrOverloaded")
	}
	if ok.Load() == 0 {
		t.Error("no call succeeded")
	}
}

// A request larger than the server's MaxFrame must come back as
// ErrTooLarge while the connection keeps serving.
func TestOversizedRequestRejectedConnSurvives(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{MaxFrame: 4096})
	c, err := Dial(addr, Config{MaxFrame: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := &echoArgs{Text: string(make([]byte, 8192))}
	err = c.Call(methodEcho, big, &echoReply{})
	if !errors.Is(errcode.Decode(err), ErrTooLarge) {
		t.Fatalf("oversized request: got %v, want ErrTooLarge", err)
	}
	var reply echoReply
	if err := c.Call(methodEcho, &echoArgs{Text: "still alive"}, &reply); err != nil {
		t.Fatalf("connection did not survive oversized request: %v", err)
	}
	if reply.Text != "still alive" {
		t.Fatalf("reply = %+v", reply)
	}
}

// A response larger than the client's MaxFrame must fail only that
// call, with the connection surviving.
func TestOversizedResponseFailsCallConnSurvives(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{})
	c, err := Dial(addr, Config{MaxFrame: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call(methodBig, &echoArgs{}, &echoReply{})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized response: got %v, want ErrTooLarge", err)
	}
	var reply echoReply
	if err := c.Call(methodEcho, &echoArgs{Text: "ok"}, &reply); err != nil || reply.Text != "ok" {
		t.Fatalf("connection did not survive oversized response: %v %+v", err, reply)
	}
}

// A server that also rejects oversized replies it would have produced:
// covered by methodBig with a small server MaxFrame.
func TestOversizedReplyServerSide(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{MaxFrame: 4096})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call(methodBig, &echoArgs{}, &echoReply{})
	if !errors.Is(errcode.Decode(err), ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

// A truncated frame — the peer dies mid-message — must fail all
// pending calls with a connection error, not hang.
func TestTruncatedFrameFailsPending(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		// Announce a 100-byte frame, deliver 3 bytes, die.
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 100)
		nc.Write(hdr[:])
		nc.Write([]byte{1, 2, 3})
		time.Sleep(10 * time.Millisecond)
		nc.Close()
	}()
	c, err := Dial(ln.Addr().String(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call(methodEcho, &echoArgs{Text: "x"}, &echoReply{})
	if err == nil {
		t.Fatal("call against truncating server succeeded")
	}
	if IsRemote(err) {
		t.Fatalf("truncation classified as remote error: %v", err)
	}
}

// CallTimeout must abandon the call and keep the connection: a later
// call on the same conn succeeds, and the late response is dropped.
func TestCallTimeoutKeepsConnection(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.CallTimeout(methodSlow, &echoArgs{Text: "slow"}, &echoReply{}, 5*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	var reply echoReply
	if err := c.Call(methodSlow, &echoArgs{Text: "second"}, &reply); err != nil {
		t.Fatalf("connection did not survive timeout: %v", err)
	}
	if reply.Text != "second" {
		t.Fatalf("late response leaked into wrong call: %+v", reply)
	}
}

// An unknown method id must produce an error response, not a hang or
// teardown.
func TestUnknownMethod(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call(999, &echoArgs{}, &echoReply{}); err == nil {
		t.Fatal("unknown method succeeded")
	}
	var reply echoReply
	if err := c.Call(methodEcho, &echoArgs{Text: "ok"}, &reply); err != nil || reply.Text != "ok" {
		t.Fatalf("connection did not survive unknown method: %v", err)
	}
}

// A handler that panics must fail only its own call: the caller gets an
// ordinary remote error, the stack is logged once, and the single
// worker, the connection and the other methods keep serving.
func TestHandlerPanicAnswersErrorServerSurvives(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	s, addr := newTestServer(t, ServerConfig{Workers: 1})
	const methodPanic = 1000
	s.Handle(methodPanic, func(_ TraceContext, d *Dec, b []byte) ([]byte, error) {
		var rows []int
		_ = rows[d.Uvarint()] // index out of range, like a renderer on a bad trace
		return b, nil
	})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		callErr := c.Call(methodPanic, &echoArgs{}, &echoReply{})
		if !IsRemote(callErr) || !strings.Contains(callErr.Error(), "transport: handler panicked: ") ||
			!strings.Contains(callErr.Error(), "index out of range") {
			t.Fatalf("panicking call %d: got %v, want a remote \"handler panicked\" error", i, callErr)
		}
		var reply echoReply
		if err := c.Call(methodEcho, &echoArgs{Text: "ok"}, &reply); err != nil || reply.Text != "ok" {
			t.Fatalf("server did not survive panic %d: %v", i, err)
		}
	}
	if n := strings.Count(logged.String(), "[running]:"); n != 3 {
		t.Errorf("%d stacks logged for 3 panics:\n%s", n, logged.String())
	}
	if !strings.Contains(logged.String(), "method 1000") {
		t.Errorf("log does not name the method:\n%s", logged.String())
	}
}

// Close must be idempotent and fail in-flight calls with ErrClosed.
func TestConnCloseIdempotent(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- c.Call(methodSlow, &echoArgs{Text: "x"}, &echoReply{})
	}()
	time.Sleep(5 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c.Close() }()
	}
	wg.Wait()
	select {
	case err := <-done:
		if err == nil {
			t.Log("in-flight call completed before close — acceptable race")
		} else if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight call failed with %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung after Close")
	}
	if err := c.Call(methodEcho, &echoArgs{}, &echoReply{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: %v, want ErrClosed", err)
	}
}

// The pool must redial a dead slot transparently: kill the conn under
// it, and a following call succeeds on a fresh connection.
func TestPoolRedialsDeadConn(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{})
	p := NewPool(addr, 2, Config{})
	defer p.Close()
	var reply echoReply
	if err := p.Call(methodEcho, &echoArgs{Text: "a"}, &reply); err != nil {
		t.Fatal(err)
	}
	// Kill every underlying conn out from under the pool.
	p.mu.Lock()
	for _, c := range p.conns {
		if c != nil {
			c.nc.Close()
		}
	}
	p.mu.Unlock()
	// Calls may fail while the dead conns are discovered, but the pool
	// must recover every slot without intervention: demand as many
	// consecutive successes as there are slots.
	deadline := time.Now().Add(2 * time.Second)
	streak := 0
	for streak < 2 {
		if err := p.Call(methodEcho, &echoArgs{Text: "b"}, &reply); err != nil {
			streak = 0
			if time.Now().After(deadline) {
				t.Fatalf("pool never recovered: %v", err)
			}
			continue
		}
		streak++
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	_, addr := newTestServer(t, ServerConfig{})
	p := NewPool(addr, 2, Config{})
	var reply echoReply
	if err := p.Call(methodEcho, &echoArgs{Text: "a"}, &reply); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.Close() }()
	}
	wg.Wait()
	if err := p.Call(methodEcho, &echoArgs{}, &reply); !errors.Is(err, ErrClosed) {
		t.Fatalf("pool call after Close: %v, want ErrClosed", err)
	}
}

// Server Close while calls are in flight must not deadlock and must
// release the workers.
func TestServerCloseWithInFlight(t *testing.T) {
	s, addr := newTestServer(t, ServerConfig{Workers: 2})
	c, err := Dial(addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Call(methodSlow, &echoArgs{Text: "x"}, &echoReply{}) // error expected
		}()
	}
	time.Sleep(10 * time.Millisecond)
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung with in-flight calls")
	}
	wg.Wait()
}

// Codec sanity: the sticky decoder must flag short payloads instead of
// panicking or fabricating values.
func TestDecMalformed(t *testing.T) {
	d := NewDec([]byte{0x05, 'a', 'b'}) // string claims 5 bytes, has 2
	if s := d.String(); s != "" {
		t.Fatalf("short string decoded to %q", s)
	}
	if d.Err() == nil {
		t.Fatal("short payload not flagged")
	}
	// All subsequent reads are zero-valued, never panic.
	if v := d.Uvarint(); v != 0 {
		t.Fatalf("poisoned Uvarint = %d", v)
	}
	if v := d.F64(); v != 0 {
		t.Fatalf("poisoned F64 = %v", v)
	}
}
