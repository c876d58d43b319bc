package live

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"apstdv/internal/transport"
)

// Worker service calls a FuzzWorkerService input decodes to: one kind
// byte (mod 4) and one little-endian uint64 argument per call.
const (
	fuzzStore = iota
	fuzzCompute
	fuzzFetch
	fuzzAbort
)

// fuzzCalls encodes calls for FuzzWorkerService's seeds.
func fuzzCalls(calls ...[2]uint64) []byte {
	var b []byte
	for _, c := range calls {
		b = append(b, byte(c[0]))
		b = binary.LittleEndian.AppendUint64(b, c[1])
	}
	return b
}

func fuzzUnits(u float64) uint64 { return math.Float64bits(u) }

// FuzzWorkerService decodes its input into Store, Compute, Fetch and
// Abort calls against one in-process WorkerService, the surface any
// peer can reach. No call may panic. Every Compute the loop cannot
// count (a negative or NaN load) or that runs past maxComputeIters must
// be refused before it queues for the CPU: the test holds the CPU mutex
// while making it, so a Compute that queues instead shows up as a call
// that does not return. Every other Compute must run and echo its load;
// accepted loads are folded below about 10^4 iterations so each stays
// fast. Fetch sizes a frame can carry are folded below 64 KiB; the
// others must be refused.
func FuzzWorkerService(f *testing.F) {
	f.Add(uint16(10000), 1.0, fuzzCalls([2]uint64{fuzzCompute, fuzzUnits(math.NaN())}))
	f.Add(uint16(1), 1.0, fuzzCalls([2]uint64{fuzzCompute, fuzzUnits(1<<40 + 1<<20)}))
	f.Add(uint16(3000), 0.5, fuzzCalls(
		[2]uint64{fuzzStore, 100}, [2]uint64{fuzzCompute, fuzzUnits(10)}, [2]uint64{fuzzFetch, 100},
		[2]uint64{fuzzAbort, 0}, [2]uint64{fuzzCompute, fuzzUnits(0.5)}, [2]uint64{fuzzFetch, math.MaxUint64},
		[2]uint64{fuzzFetch, 1 << 30}, [2]uint64{fuzzCompute, fuzzUnits(-1)},
		[2]uint64{fuzzCompute, fuzzUnits(math.Inf(1))}, [2]uint64{fuzzCompute, fuzzUnits(math.Inf(-1))},
	))
	f.Add(uint16(0), -2.0, fuzzCalls([2]uint64{fuzzCompute, fuzzUnits(1e300)}, [2]uint64{fuzzCompute, fuzzUnits(1e12)}))
	f.Fuzz(func(t *testing.T, workPerUnit uint16, speed float64, calls []byte) {
		svc := NewWorkerService(int(workPerUnit), speed)
		computed, stored := 0, int64(0)
		for ; len(calls) >= 9; calls = calls[9:] {
			arg := binary.LittleEndian.Uint64(calls[1:9])
			switch calls[0] % 4 {
			case fuzzStore:
				data := make([]byte, arg%4096)
				var reply StoreReply
				if err := svc.Store(StoreArgs{Data: data}, &reply); err != nil || reply.Received != len(data) {
					t.Fatalf("store of %d bytes: ack %d, error %v", len(data), reply.Received, err)
				}
				stored += int64(len(data))
			case fuzzCompute:
				units := math.Float64frombits(arg)
				work := units * float64(svc.WorkPerUnit) / svc.SpeedFactor
				if !(units >= 0 && work <= maxComputeIters) {
					refusedBeforeQueueing(t, svc, units, work)
					continue
				}
				if work >= 1e4 {
					units = math.Mod(units, 1e4*svc.SpeedFactor/float64(svc.WorkPerUnit))
				}
				var reply ComputeReply
				if err := svc.Compute(ComputeArgs{Units: units}, &reply); err != nil {
					t.Fatalf("compute of %g units: %v", units, err)
				}
				if reply.Units != units {
					t.Fatalf("compute of %g units echoed %g", units, reply.Units)
				}
				computed++
			case fuzzFetch:
				n := int(int64(arg))
				if n >= 0 && n <= transport.DefaultMaxFrame {
					n %= 1 << 16
				}
				var reply FetchReply
				err := svc.Fetch(FetchArgs{Bytes: n}, &reply)
				if refused := n < 0 || n > transport.DefaultMaxFrame; refused != (err != nil) {
					t.Fatalf("fetch of %d bytes: error %v", n, err)
				}
				if err == nil && len(reply.Data) != n {
					t.Fatalf("fetch of %d bytes returned %d", n, len(reply.Data))
				}
			case fuzzAbort:
				if err := svc.Abort(AbortArgs{}, &AbortReply{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if svc.Computed() != computed || svc.BytesReceived() != stored {
			t.Fatalf("worker counts %d computes and %d bytes, want %d and %d",
				svc.Computed(), svc.BytesReceived(), computed, stored)
		}
	})
}

// refusedBeforeQueueing makes a Compute that must be refused while
// holding the service's CPU mutex: a refusal returns at once, while a
// Compute that queues for the CPU blocks until the test aborts it.
func refusedBeforeQueueing(t *testing.T, svc *WorkerService, units, work float64) {
	t.Helper()
	svc.mu.Lock()
	res := make(chan error, 1)
	go func() {
		var reply ComputeReply
		res <- svc.Compute(ComputeArgs{Units: units}, &reply)
	}()
	select {
	case err := <-res:
		svc.mu.Unlock()
		if err == nil || !strings.Contains(err.Error(), "limit 1099511627776") {
			t.Fatalf("compute of %g units (%g iterations): error %v, want a refusal naming the limit", units, work, err)
		}
	case <-time.After(5 * time.Second):
		svc.Abort(AbortArgs{}, &AbortReply{})
		svc.mu.Unlock()
		<-res
		t.Fatalf("compute of %g units (%g iterations) queued for the CPU instead of being refused", units, work)
	}
}
