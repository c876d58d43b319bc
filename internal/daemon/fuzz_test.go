package daemon

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"apstdv/internal/live"
	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/transport"
)

// wireMsg is a message with both halves of the frame codec.
type wireMsg interface {
	transport.Appender
	transport.Decoder
}

// wireSeeds holds one populated value of every message type that
// crosses a socket — the daemon protocol and the worker protocol — and
// doubles as the type table: the fuzzer decodes into a fresh value of
// the seed's type.
var wireSeeds = []wireMsg{
	&SubmitArgs{TaskXML: "<task/>", Algorithm: "umr", Priority: "high",
		SimApp: &SimApp{UnitCost: 1.5, BytesPerUnit: 2.5, Gamma: 0.25}},
	&SubmitReply{JobID: 9, Algorithm: "rumr", TotalLoad: 200, State: JobQueued},
	&StatusArgs{JobID: 9},
	&StatusReply{Job: Job{ID: 9, Algorithm: "umr", Priority: "low", State: JobRunning,
		Submitted: time.Unix(0, 1e18), Started: time.Unix(0, 1e18+5),
		Makespan: 12.5, Chunks: 40, Leased: []int{0, 2}, Shares: []float64{1, 0.5}, TraceID: 77}},
	&CancelArgs{JobID: 9},
	&CancelReply{State: JobCancelled},
	&ReportArgs{JobID: 9},
	&ReportReply{Summary: "s", CSV: "a,b\n1,2\n", Gantt: "w0 |##|"},
	&AlgorithmsArgs{},
	&AlgorithmsReply{Names: []string{"uniform", "rumr", "fixed-1"}},
	&ListJobsArgs{},
	&ListJobsReply{Policy: "fair", Jobs: []Job{{ID: 1, State: JobDone, Err: "x", Code: "y"},
		{ID: 2, State: JobQueued, QueuePos: 1}}},
	&EventsArgs{JobID: 9, AfterSeq: -1},
	&EventsReply{State: JobRunning, Dropped: true, Events: []obs.Event{
		{Seq: 1, Type: obs.JobQueued, Class: "high"}, {Seq: 2, Probe: true, Worker: 3, Size: 1.5}}},
	&TraceArgs{JobID: 9},
	&TraceReply{TraceID: 77, Spans: []otrace.SpanRecord{
		{Trace: 77, ID: 2, Parent: 1, Name: "job.queue", Start: 10, End: 20, BackendClock: true, Err: "e"}}},
	&TraceStatsArgs{},
	&TraceStatsReply{Enabled: true, Recorded: 5, Retained: 4, Stages: []otrace.StageStat{
		{Stage: "queue", Count: 5, Sampled: 4, P50Ms: 1, P90Ms: 2, P99Ms: 3, MaxMs: 4}}},
	&live.StoreArgs{Data: []byte("chunk")},
	&live.StoreReply{Received: 5},
	&live.ComputeArgs{Units: 2.5, Probe: true},
	&live.ComputeReply{Checksum: 1.25, Units: 2.5},
	&live.FetchArgs{Bytes: 64},
	&live.FetchReply{Data: []byte("out")},
	&live.AbortArgs{},
	&live.AbortReply{},
}

// fresh returns a zero value of seed's concrete type.
func fresh(seed wireMsg) wireMsg {
	return reflect.New(reflect.TypeOf(seed).Elem()).Interface().(wireMsg)
}

// allocatedBy returns the bytes fn allocates, as the runtime counts
// them. Other goroutines' allocations land in the same counter; the
// ceilings below leave room for them.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCountAllocatesNothing crafts, for each count-prefixed
// reply, a frame whose count claims one element per byte of a body that
// decodes to none: the decoder must fail on the first element having
// reserved next to nothing, where sizing the slice from the count
// reserved count × sizeof(element) — 20 MB here for the events, 5 GB
// for a frame at the transport's 16 MiB limit — before reading one.
func TestHostileCountAllocatesNothing(t *testing.T) {
	const claimed = 1 << 16
	body := bytes.Repeat([]byte{0xff}, claimed) // an endless varint
	for _, tc := range []struct {
		reply  wireMsg
		prefix []byte // the fields ahead of the count
	}{
		{&EventsReply{}, nil},
		{&ListJobsReply{}, nil},
		{&TraceReply{}, transport.AppendUvarint(nil, 77)},
		{&TraceStatsReply{}, transport.AppendVarint(transport.AppendUvarint(transport.AppendBool(nil, true), 5), 4)},
		{&AlgorithmsReply{}, nil},
	} {
		frame := append(transport.AppendUvarint(tc.prefix, claimed), body...)
		d := transport.NewDec(frame)
		got := allocatedBy(func() { tc.reply.DecodeWire(d) })
		if d.Err() == nil {
			t.Errorf("%T: a count with no elements behind it decoded without error", tc.reply)
		}
		if ceiling := uint64(256 << 10); got > ceiling {
			t.Errorf("%T: decoding a %d-byte frame claiming %d elements allocated %d bytes, want <= %d",
				tc.reply, len(frame), claimed, got, ceiling)
		}
	}
}

// FuzzDecodeWire feeds arbitrary bytes to every DecodeWire: a decoder
// must never panic, must allocate in proportion to the bytes it was
// given, and whatever it accepts must re-encode to a form that is a
// fixed point of decode→encode — the decoders run on bytes from a
// socket, on the server for Args and on the client for Replies.
func FuzzDecodeWire(f *testing.F) {
	// An element count of 2^64-1 ahead of an empty body: the hostile
	// length every count-prefixed decoder must refuse without
	// allocating or indexing by it.
	hugeCount := bytes.Repeat([]byte{0xff}, 9)
	hugeCount = append(hugeCount, 0x01)
	for i, seed := range wireSeeds {
		enc := seed.AppendWire(nil)
		f.Add(uint8(i), enc)
		f.Add(uint8(i), enc[:len(enc)/2])
		f.Add(uint8(i), hugeCount)
		f.Add(uint8(i), append(transport.AppendUvarint(nil, 77), hugeCount...))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		seed := wireSeeds[int(which)%len(wireSeeds)]
		v1 := fresh(seed)
		d := transport.NewDec(data)
		// The densest honest input is an Event in one byte: 304 bytes in
		// the slice, up to five times that over the slice's growth.
		if got, ceiling := allocatedBy(func() { v1.DecodeWire(d) }), uint64(64<<10+2048*len(data)); got > ceiling {
			t.Fatalf("%T: decoding %d bytes allocated %d, want <= %d", seed, len(data), got, ceiling)
		}
		if d.Err() != nil {
			return
		}
		e1 := v1.AppendWire(nil)
		v2 := fresh(seed)
		d = transport.NewDec(e1)
		v2.DecodeWire(d)
		if err := d.Err(); err != nil {
			t.Fatalf("%T: re-decoding its own encoding: %v", seed, err)
		}
		if e2 := v2.AppendWire(nil); !bytes.Equal(e1, e2) {
			t.Fatalf("%T: encode→decode→encode not a fixed point:\n%x\n%x", seed, e1, e2)
		}
	})
}
