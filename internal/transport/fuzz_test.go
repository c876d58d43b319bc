package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// FuzzServerFrames writes hostile bytes into the server's read loop —
// the one place bytes from a client socket are first interpreted. Per
// input it checks, on a fresh connection to one shared server:
//
//   - survival: an oversized frame built from the fuzzed id, kind and
//     excess length is answered with ErrTooLarge, and a well-formed
//     echo behind it on the same connection still gets its reply;
//   - no panic and no hang: the arbitrary bytes that follow are read
//     until the stream ends, and closing the client end tears the
//     server connection down;
//   - bounded allocation: nothing read off the wire makes the server
//     allocate beyond MaxFrame-sized buffers, however large a length a
//     header announces.
func FuzzServerFrames(f *testing.F) {
	const maxFrame = 4096
	s := NewServer(ServerConfig{Workers: 1, MaxFrame: maxFrame})
	f.Cleanup(func() { s.Close() })
	Register[echoArgs, echoReply](s, methodEcho, func(a *echoArgs, r *echoReply) error {
		r.Text, r.N, r.F = a.Text, a.N, a.F
		return nil
	})

	echoFrame := func(id uint64) []byte {
		b := beginFrame(nil, id, kindRequest)
		b = AppendUvarint(b, methodEcho)
		b = (&echoArgs{Text: "ping", N: int64(id)}).AppendWire(b)
		return finishFrame(b)
	}
	f.Add(uint64(7), byte(kindRequest), uint16(0), echoFrame(9))
	f.Add(uint64(1<<63), byte(kindRequest|kindTraceFlag), uint16(5000), echoFrame(9)[:7])
	f.Add(uint64(0), byte(kindResponse), uint16(1), []byte{})
	// A header announcing 2 GiB and one announcing 4 GiB-1, each with
	// almost no body behind it.
	f.Add(uint64(3), byte(kindError), uint16(0), []byte{0x7f, 0xff, 0xff, 0xff, 0x01, 0x00})
	f.Add(uint64(3), byte(kindRequest), uint16(0), []byte{0xff, 0xff, 0xff, 0xff, 0x01})
	// A traced frame whose trace varints never terminate, and a frame
	// too short to hold a kind byte.
	f.Add(uint64(3), byte(kindRequest), uint16(0), []byte{0, 0, 0, 4, 0x01, kindTraceFlag, 0xff, 0xff})
	f.Add(uint64(3), byte(kindRequest), uint16(0), []byte{0, 0, 0, 1, 0x01})

	f.Fuzz(func(t *testing.T, id uint64, kind byte, excess uint16, data []byte) {
		cli, srv := net.Pipe()
		defer cli.Close()
		// One watchdog for the whole input (armed here, outside the
		// measured window below: arming a timer can grow the runtime's
		// timer heap, which would count against the server). It breaks
		// the pipe, so a read loop stuck on it fails the input instead
		// of hanging the fuzzer.
		var hung atomic.Bool
		watchdog := time.AfterFunc(10*time.Second, func() {
			hung.Store(true)
			cli.Close()
			srv.Close()
		})
		defer watchdog.Stop()
		sc := s.serveConn(srv)

		// An oversized frame, complete on the wire, then an echo.
		n := maxFrame + 1 + int(excess)
		big := make([]byte, 4, 4+n)
		big = AppendUvarint(big, id)
		big = append(big, kind)
		big = finishFrame(big[:4+n])
		echoID := id + 1
		go func() {
			cli.Write(big)
			cli.Write(echoFrame(echoID))
		}()
		fr := &frameReader{br: bufio.NewReader(cli), max: maxFrame, metrics: nopMetrics}
		gotID, gotKind, _, payload, err := fr.next()
		if err != nil {
			t.Fatalf("reading the oversized frame's answer: %v", err)
		}
		if msg := NewDec(*payload).String(); gotID != id || gotKind != kindError || msg != ErrTooLarge.Error() {
			t.Fatalf("oversized frame %d answered with id %d kind %d %q", id, gotID, gotKind, msg)
		}
		gotID, gotKind, _, payload, err = fr.next()
		if err != nil {
			t.Fatalf("connection did not survive the oversized frame: %v", err)
		}
		var reply echoReply
		reply.DecodeWire(NewDec(*payload))
		if gotID != echoID || gotKind != kindResponse || reply.Text != "ping" {
			t.Fatalf("echo behind the oversized frame: id %d kind %d reply %+v", gotID, gotKind, reply)
		}

		// Arbitrary bytes. Whatever the server answers is drained so its
		// writer never blocks on the pipe.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				_, _, _, payload, err := fr.next()
				if err != nil {
					return
				}
				putBuf(payload)
			}
		}()
		cli.Write(data) // fails midway if the server already hung up
		cli.Close()
		<-sc.snd.quit
		<-drained
		if hung.Load() {
			t.Fatal("server connection not torn down after the client closed")
		}
		// Requests this input queued are served before measuring, so
		// their cost lands in this input's window, not the next one's.
		for len(s.queue) > 0 {
			runtime.Gosched()
		}
		runtime.ReadMemStats(&after)
		// The smallest frame is 6 bytes and can cost a pooled 1 KiB
		// buffer at each of three stops (request payload, response,
		// the drain above), hence the per-byte factor; a length taken
		// on trust from a header would exceed the bound by orders of
		// magnitude.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*maxFrame+1024*len(data)); got > bound {
			t.Fatalf("%d bytes allocated serving %d hostile bytes (bound %d)", got, len(data), bound)
		}
	})
}

// FuzzClientFrames writes hostile bytes into a client connection's read
// loop — where bytes from a server socket are first interpreted — from
// the server end of a pipe, with four calls pending (A, B, C, D, in id
// order). Per input it checks:
//
//   - survival: an oversized frame for A built from the fuzzed kind and
//     excess length fails A with ErrTooLarge, and a well-formed echo
//     reply behind it still answers B;
//   - a frame of the fuzzed kind and body for C ends C with a reply or
//     a decode error when it is a response or an error frame, and
//     otherwise — a request frame, or a trace context that does not
//     parse — is malformed and tears the connection down;
//   - no panic and no hang: the arbitrary bytes that follow are read
//     until the stream ends, closing the server end tears the
//     connection down, and every call returns, with a reply or an error;
//   - bounded allocation: nothing read off the wire makes the client
//     allocate beyond MaxFrame-sized buffers, however large a length a
//     header announces.
func FuzzClientFrames(f *testing.F) {
	const maxFrame = 4096
	frame := func(id uint64, kind byte, body []byte) []byte {
		return finishFrame(append(beginFrame(nil, id, kind), body...))
	}
	pong := (&echoReply{Text: "pong", N: 4}).AppendWire(nil)
	f.Add(byte(kindResponse), uint16(0), pong, []byte{})
	f.Add(byte(kindError), uint16(5000), AppendString(nil, "boom"), frame(4, kindResponse, pong))
	f.Add(byte(kindRequest), uint16(1), pong, frame(4, kindResponse, pong))
	// A trace context that never terminates, and one that parses.
	f.Add(byte(kindResponse|kindTraceFlag), uint16(0), []byte{0xff, 0xff}, []byte{})
	f.Add(byte(kindError|kindTraceFlag), uint16(0), append([]byte{1, 2}, AppendString(nil, "x")...), []byte{0, 0})
	// Headers announcing 2 GiB and 4 GiB-1 with almost nothing behind
	// them, a truncated body, and a reply to a call nobody made.
	f.Add(byte(kindResponse), uint16(0), pong, []byte{0x7f, 0xff, 0xff, 0xff, 0x04, 0x01})
	f.Add(byte(kindResponse), uint16(0), pong, []byte{0xff, 0xff, 0xff, 0xff, 0x04})
	f.Add(byte(kindResponse), uint16(0), pong, []byte{0, 0, 0, 9, 0x04, kindResponse})
	f.Add(byte(kindResponse), uint16(0), pong, frame(99, kindResponse, pong))

	f.Fuzz(func(t *testing.T, kind byte, excess uint16, body, data []byte) {
		if len(body) > maxFrame-16 {
			body = body[:maxFrame-16]
		}
		cli, srv := net.Pipe()
		defer srv.Close()
		// One watchdog for the whole input, armed outside the measured
		// window below; it breaks the pipe, so a stuck read loop fails the
		// input instead of hanging the fuzzer.
		var hung atomic.Bool
		watchdog := time.AfterFunc(10*time.Second, func() {
			hung.Store(true)
			cli.Close()
			srv.Close()
		})
		defer watchdog.Stop()
		c := NewConn(cli, Config{Window: 4, MaxFrame: maxFrame})
		defer c.Close()

		// The server end reads the requests, reporting each id.
		ids := make(chan uint64, 4)
		go func() {
			fr := &frameReader{br: bufio.NewReader(srv), max: maxFrame, metrics: nopMetrics}
			for {
				id, _, _, payload, err := fr.next()
				if err != nil {
					return
				}
				putBuf(payload)
				ids <- id
			}
		}()
		type result struct {
			reply echoReply
			err   error
		}
		var id [4]uint64
		done := [4]chan result{}
		for i := range done {
			done[i] = make(chan result, 1)
			go func() {
				var r result
				r.err = c.Call(methodEcho, &echoArgs{Text: "ping", N: int64(i)}, &r.reply)
				done[i] <- r
			}()
			id[i] = <-ids
		}
		wait := func(i int) result {
			r := <-done[i]
			if hung.Load() {
				t.Fatalf("call %c did not return", 'A'+i)
			}
			return r
		}

		// An oversized frame for A, complete on the wire, then B's reply.
		n := maxFrame + 1 + int(excess)
		big := make([]byte, 4, 4+n)
		big = AppendUvarint(big, id[0])
		big = append(big, kind)
		srv.Write(finishFrame(big[:4+n]))
		srv.Write(frame(id[1], kindResponse, pong))
		if r := wait(0); r.err != ErrTooLarge {
			t.Fatalf("oversized frame for A: %v, want ErrTooLarge", r.err)
		}
		if r := wait(1); r.err != nil || r.reply.Text != "pong" {
			t.Fatalf("connection did not survive the oversized frame: B got %+v, %v", r.reply, r.err)
		}

		// C's frame, judged by the protocol: response and error frames
		// answer C; anything else is malformed.
		malformed := false
		k, rest := kind, body
		if k&kindTraceFlag != 0 {
			k &^= kindTraceFlag
			_, tn := binary.Uvarint(rest)
			_, sn := binary.Uvarint(rest[max(tn, 0):])
			malformed = tn <= 0 || sn <= 0
		}
		malformed = malformed || k != kindResponse && k != kindError
		srv.Write(frame(id[2], kind, body))
		r := wait(2)
		if malformed {
			<-c.snd.quit
			if hung.Load() || r.err == nil {
				t.Fatalf("malformed frame (kind %#x) for C: call ended with %v; torn down only by the watchdog: %v", kind, r.err, hung.Load())
			}
		} else {
			select {
			case <-c.snd.quit:
				t.Fatalf("frame of kind %#x for C tore the connection down: %v", kind, c.fatalErr())
			default:
			}
			var remote *RemoteError
			switch {
			case k == kindResponse && r.err != nil && r.err != errMalformed,
				k == kindError && r.err != errMalformed && !errors.As(r.err, &remote):
				t.Fatalf("frame of kind %#x for C: call ended with %v", kind, r.err)
			}
		}

		// Arbitrary bytes, then the server hangs up.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.Write(data) // fails midway if the client already tore down
		srv.Close()
		<-c.snd.quit
		wait(3)
		if hung.Load() {
			t.Fatal("client connection not torn down after the server closed")
		}
		runtime.ReadMemStats(&after)
		// The smallest frame is 6 bytes and can cost a pooled 1 KiB buffer
		// and a decoded reply; a length taken on trust from a header would
		// exceed the bound by orders of magnitude.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*maxFrame+1024*len(data)); got > bound {
			t.Fatalf("%d bytes allocated reading %d hostile bytes (bound %d)", got, len(data), bound)
		}
	})
}
