package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"apstdv/internal/obs"
)

// Frame buffers are pooled process-wide: every frame — outgoing
// requests and responses, incoming payloads — lives in a buffer that
// returns to the pool once written or decoded, so steady-state framing
// allocates nothing beyond growth to the workload's frame size.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n, 2*n)
		return nb
	}
	return b[:n]
}

// beginFrame starts a frame in b: a 4-byte length placeholder, the
// request id, and the kind byte. finishFrame patches the length.
func beginFrame(b []byte, id uint64, kind byte) []byte {
	b = append(b, 0, 0, 0, 0)
	b = binary.AppendUvarint(b, id)
	return append(b, kind)
}

// beginTracedFrame is beginFrame plus an optional trace context: when
// tc carries a trace, the kind byte gets the kindTraceFlag bit and the
// trace/span ids follow as uvarints. An untraced tc produces a frame
// byte-identical to beginFrame's.
func beginTracedFrame(b []byte, id uint64, kind byte, tc TraceContext) []byte {
	if !tc.Valid() {
		return beginFrame(b, id, kind)
	}
	b = append(b, 0, 0, 0, 0)
	b = binary.AppendUvarint(b, id)
	b = append(b, kind|kindTraceFlag)
	b = binary.AppendUvarint(b, tc.Trace)
	return binary.AppendUvarint(b, tc.Span)
}

// finishFrame patches the length prefix once the payload is appended.
func finishFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// errOversized marks a frame whose announced length exceeded the limit.
// The frame's header was still read and its body discarded, so the
// connection remains framed; only this message is lost.
type errOversized struct {
	id   uint64
	kind byte
	size int
}

func (e *errOversized) Error() string {
	return fmt.Sprintf("transport: %d-byte frame exceeds limit", e.size)
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// frameReader reads frames off one connection.
type frameReader struct {
	br      *bufio.Reader
	max     int
	metrics *obs.TransportMetrics
}

// next reads one frame and returns its id, kind, trace context
// (zero when the frame carries none), and payload in a pooled buffer
// the caller owns (release with putBuf). An oversized frame is
// discarded in place — trace varints included — and reported as
// *errOversized, a per-frame error; every other error is fatal to the
// connection.
func (fr *frameReader) next() (id uint64, kind byte, tc TraceContext, payload *[]byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return 0, 0, TraceContext{}, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > fr.max {
		// Recover framing: read the id and kind off the stream, then
		// drop the body (including any trace varints — an oversized
		// reject needs no context beyond the id).
		id, err := binary.ReadUvarint(fr.br)
		if err != nil {
			return 0, 0, TraceContext{}, nil, err
		}
		kind, err := fr.br.ReadByte()
		if err != nil {
			return 0, 0, TraceContext{}, nil, err
		}
		rest := int64(n - uvarintLen(id) - 1)
		if rest < 0 {
			return 0, 0, TraceContext{}, nil, fmt.Errorf("transport: corrupt oversized frame header")
		}
		if _, err := io.CopyN(io.Discard, fr.br, rest); err != nil {
			return 0, 0, TraceContext{}, nil, err
		}
		fr.metrics.FramesRecv.Inc()
		fr.metrics.BytesRecv.Add(float64(n + 4))
		return 0, 0, TraceContext{}, nil, &errOversized{id: id, kind: kind &^ kindTraceFlag, size: n}
	}
	buf := getBuf()
	*buf = grow(*buf, n)
	if _, err := io.ReadFull(fr.br, *buf); err != nil {
		putBuf(buf)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // truncated mid-frame
		}
		return 0, 0, TraceContext{}, nil, err
	}
	d := *buf
	uid, un := binary.Uvarint(d)
	if un <= 0 || un >= len(d) {
		putBuf(buf)
		return 0, 0, TraceContext{}, nil, fmt.Errorf("transport: corrupt frame header")
	}
	kind = d[un]
	rest := d[un+1:]
	if kind&kindTraceFlag != 0 {
		kind &^= kindTraceFlag
		tv, tn := binary.Uvarint(rest)
		if tn <= 0 {
			putBuf(buf)
			return 0, 0, TraceContext{}, nil, fmt.Errorf("transport: corrupt trace context")
		}
		sv, sn := binary.Uvarint(rest[tn:])
		if sn <= 0 {
			putBuf(buf)
			return 0, 0, TraceContext{}, nil, fmt.Errorf("transport: corrupt trace context")
		}
		tc = TraceContext{Trace: tv, Span: sv}
		rest = rest[tn+sn:]
	}
	*buf = rest
	fr.metrics.FramesRecv.Inc()
	fr.metrics.BytesRecv.Add(float64(n + 4))
	return uid, kind, tc, buf, nil
}

// sender is the shared coalescing writer: frames queued on ch while a
// write is in progress are drained into the same buffered write, so
// many frames share one syscall and one flush. Both the client
// connection and the server connection run one.
type sender struct {
	ch      chan *[]byte
	quit    chan struct{}
	metrics *obs.TransportMetrics
}

// send queues one finished frame (ownership transfers). It fails only
// once the connection is down.
func (s *sender) send(buf *[]byte) error {
	select {
	case s.ch <- buf:
		return nil
	case <-s.quit:
		putBuf(buf)
		return ErrClosed
	default:
	}
	// The queue is momentarily full: block, but stay cancelable.
	select {
	case s.ch <- buf:
		return nil
	case <-s.quit:
		putBuf(buf)
		return ErrClosed
	}
}

// loop writes queued frames until quit closes or a write fails; fail is
// invoked with the first write error.
func (s *sender) loop(w io.Writer, fail func(error)) {
	bw := bufio.NewWriterSize(w, 64<<10)
	for {
		select {
		case buf := <-s.ch:
			err := s.writeOne(bw, buf)
			for err == nil {
				select {
				case buf := <-s.ch:
					err = s.writeOne(bw, buf)
					continue
				default:
				}
				break
			}
			if err == nil {
				err = bw.Flush()
				s.metrics.Writes.Inc()
			}
			if err != nil {
				fail(err)
				return
			}
		case <-s.quit:
			return
		}
	}
}

func (s *sender) writeOne(bw *bufio.Writer, buf *[]byte) error {
	_, err := bw.Write(*buf)
	s.metrics.FramesSent.Inc()
	s.metrics.BytesSent.Add(float64(len(*buf)))
	putBuf(buf)
	return err
}
