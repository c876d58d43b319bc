// Package live is the real execution backend: workers are frame-
// transport services (in-process or remote; method ids and codecs in
// wire.go) that receive actual chunk bytes over TCP and burn actual CPU
// for each load unit. It implements the same engine.Backend interface
// as the simulator, demonstrating that the scheduling layer is
// execution-agnostic — the paper's point about APST working over
// Ssh/Scp, Globus, or anything else that moves files and starts
// processes.
//
// To make scheduling effects observable on a single machine, the backend
// can impose a network model on transfers (latency + bandwidth pacing)
// and per-worker speed factors on computation, while the work itself
// remains real: bytes cross a real TCP connection and the compute loop
// does real floating-point operations.
package live

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"apstdv/internal/transport"
)

// StoreArgs carries one fragment of chunk data to a worker.
type StoreArgs struct {
	Data []byte
}

// StoreReply acknowledges a fragment.
type StoreReply struct {
	// Received is the fragment's length as the worker counted it.
	Received int
}

// ComputeArgs requests computation of a stored chunk.
type ComputeArgs struct {
	// Units is the chunk size in load units; the worker burns
	// WorkPerUnit floating-point iterations per unit.
	Units float64
	// Probe marks calibration work.
	Probe bool
}

// ComputeReply reports the result of a computation.
type ComputeReply struct {
	// Checksum is a digest of the work actually performed, so tests can
	// verify computation really ran.
	Checksum float64
	// Units echoes the computed load.
	Units float64
}

// FetchArgs requests output bytes back from the worker.
type FetchArgs struct {
	Bytes int
}

// FetchReply returns output data.
type FetchReply struct {
	Data []byte
}

// WorkerService is the RPC service a worker exposes. One service
// instance serves one worker CPU: computations are serialized FIFO by a
// mutex, exactly like a single-core node draining its queue.
type WorkerService struct {
	// WorkPerUnit is the number of inner loop iterations one load unit
	// costs. Calibrate so a unit takes the time your experiment needs.
	WorkPerUnit int
	// SpeedFactor scales the work down for faster workers (>1 = faster).
	SpeedFactor float64

	mu       sync.Mutex // serializes Compute: one CPU
	computed int
	bytesIn  atomic.Int64

	// aborts is the abort generation: Abort increments it, and any
	// computation whose request predates the increment — running or
	// queued behind the CPU mutex — stops with an error. Master
	// cancellation would otherwise leave the worker burning a stale
	// chunk that the next job's work queues behind.
	aborts atomic.Int64
}

// NewWorkerService returns a worker burning workPerUnit iterations per
// load unit.
func NewWorkerService(workPerUnit int, speed float64) *WorkerService {
	if speed <= 0 {
		speed = 1
	}
	return &WorkerService{WorkPerUnit: workPerUnit, SpeedFactor: speed}
}

// Store implements the data path: a fragment arrives, is counted and
// acknowledged with its length (the data itself is load, not meaning —
// the synthetic application reads it and computes). The worker keeps
// nothing per chunk.
func (s *WorkerService) Store(args StoreArgs, reply *StoreReply) error {
	s.bytesIn.Add(int64(len(args.Data)))
	reply.Received = len(args.Data)
	return nil
}

// Compute implements the compute path: burn real CPU proportional to the
// chunk's load. The checksum prevents the loop from being optimized away
// and lets callers verify work happened.
func (s *WorkerService) Compute(args ComputeArgs, reply *ComputeReply) error {
	// A load the loop cannot count would run no iteration and report
	// success (a negative or NaN one), and one past maxComputeIters
	// would hold the CPU until an Abort. Refuse either before queueing.
	work := args.Units * float64(s.WorkPerUnit) / s.SpeedFactor
	if !(args.Units >= 0 && work <= maxComputeIters) {
		return fmt.Errorf("live: compute units %g out of range (%g iterations, limit %d)", args.Units, work, maxComputeIters)
	}
	// Sample the abort generation before queueing on the CPU: an Abort
	// issued while this request waits its FIFO turn kills it too.
	gen := s.aborts.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	iters := int(work)
	x := 1.000000019
	sum := 0.0
	for i := 0; i < iters; i++ {
		sum += x
		x = x*1.0000001 + 1e-9
		if x > 2 {
			x -= 1
		}
		// One atomic load every 64Ki iterations keeps the abort latency
		// in the microseconds without measurably slowing the hot loop.
		if i&0xFFFF == 0xFFFF && s.aborts.Load() != gen {
			return errAborted
		}
	}
	if s.aborts.Load() != gen {
		return errAborted
	}
	s.computed++
	reply.Checksum = sum
	reply.Units = args.Units
	return nil
}

// maxComputeIters bounds one Compute's loop: 2^40 iterations, about 35
// minutes of one CPU at 2 ns an iteration. Any peer can send a Compute,
// and nothing but an Abort stops a loop once it runs.
const maxComputeIters = 1 << 40

// errAborted reports a computation killed by Worker.Abort.
var errAborted = errors.New("live: compute aborted")

// AbortArgs is the Worker.Abort request (empty).
type AbortArgs struct{}

// AbortReply is the Worker.Abort response (empty).
type AbortReply struct{}

// Abort kills the running computation and any queued behind it: every
// Compute whose request arrived before this call fails with an abort
// error. Computations submitted afterwards run normally, so a new job
// leasing this worker starts on a clean CPU.
func (s *WorkerService) Abort(args AbortArgs, reply *AbortReply) error {
	s.aborts.Add(1)
	return nil
}

// Fetch implements the output path: return Bytes of (synthetic) output.
// A size no frame could carry is refused before anything is allocated,
// so a bad request cannot make the worker allocate without bound.
func (s *WorkerService) Fetch(args FetchArgs, reply *FetchReply) error {
	if args.Bytes < 0 {
		return errors.New("live: negative output size")
	}
	if args.Bytes > transport.DefaultMaxFrame {
		return fmt.Errorf("live: output size %d exceeds the %d-byte frame limit", args.Bytes, transport.DefaultMaxFrame)
	}
	reply.Data = make([]byte, args.Bytes)
	return nil
}

// Computed returns how many computations this worker has served.
func (s *WorkerService) Computed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.computed
}

// BytesReceived returns the total chunk bytes stored.
func (s *WorkerService) BytesReceived() int64 { return s.bytesIn.Load() }

// Serve exposes the service on a loopback TCP listener, returning the
// address and a shutdown function. The shutdown function kills the
// worker outright: it closes the listener and every active connection,
// so in-flight RPCs fail the way they would if the node crashed — and
// aborts any compute those connections had queued, so a stopped worker
// does not keep burning CPU.
func Serve(svc *WorkerService) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("live: listen: %w", err)
	}
	return ln.Addr().String(), ServeListener(svc, ln), nil
}

// ServeListener serves the worker protocol on an established listener
// (Serve with a caller-owned bind address, as cmd/apstdv-worker needs).
// The stop function has Serve's crash semantics.
func ServeListener(svc *WorkerService, ln net.Listener) (stop func()) {
	srv := newWorkerFrameServer(svc, transport.ServerConfig{})
	go srv.Serve(ln)
	return func() {
		srv.Close()
		// Kill any compute the dead connections abandoned: a crashed
		// node stops burning CPU, and so must a stopped worker.
		svc.Abort(AbortArgs{}, &AbortReply{})
	}
}
