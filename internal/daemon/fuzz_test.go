package daemon

import (
	"bytes"
	"reflect"
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
	&live.StoreArgs{Chunk: 3, Data: []byte("chunk"), Last: true},
	&live.StoreReply{Received: 5},
	&live.ComputeArgs{Chunk: 3, Units: 2.5, Probe: true},
	&live.ComputeReply{Checksum: 1.25, Units: 2.5},
	&live.FetchArgs{Chunk: 3, Bytes: 64},
	&live.FetchReply{Data: []byte("out")},
	&live.AbortArgs{},
	&live.AbortReply{},
}

// fresh returns a zero value of seed's concrete type.
func fresh(seed wireMsg) wireMsg {
	return reflect.New(reflect.TypeOf(seed).Elem()).Interface().(wireMsg)
}

// FuzzDecodeWire feeds arbitrary bytes to every DecodeWire: a decoder
// must never panic, and whatever it accepts must re-encode to a form
// that is a fixed point of decode→encode — the decoders run on bytes
// from a socket, on the server for Args and on the client for Replies.
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
		v1.DecodeWire(d)
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
