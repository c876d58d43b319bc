package daemon

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"apstdv/internal/obs"
	"apstdv/internal/transport"
)

// fillNonZero sets every exported field of *v to a distinct non-zero
// value via reflection, so a field added to the struct but missing from
// its wire codec shows up as a round-trip mismatch.
func fillNonZero(t *testing.T, v reflect.Value, salt int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue // unexported (Job.tr, Job.events) stay local
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("%s-%d", v.Type().Field(i).Name, salt))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(salt*100 + i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(salt*100 + i + 1))
		case reflect.Float64:
			f.SetFloat(float64(salt*100+i) + 0.25)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			switch f.Type().Elem().Kind() {
			case reflect.Int:
				f.Set(reflect.ValueOf([]int{salt, salt + 1}))
			case reflect.Float64:
				f.Set(reflect.ValueOf([]float64{float64(salt) + 0.5, 0.25}))
			default:
				t.Fatalf("field %s: teach fillNonZero about %v slices",
					v.Type().Field(i).Name, f.Type().Elem())
			}
		case reflect.Struct:
			if f.Type() == reflect.TypeOf(time.Time{}) {
				f.Set(reflect.ValueOf(time.Unix(0, int64(salt)*1e9+int64(i)).UTC()))
			} else {
				t.Fatalf("field %s: teach fillNonZero about struct %v",
					v.Type().Field(i).Name, f.Type())
			}
		default:
			t.Fatalf("field %s has kind %v — teach fillNonZero and the wire codec",
				v.Type().Field(i).Name, f.Kind())
		}
	}
}

// Every obs.Event field must survive the frame codec. (That the codec's
// field list is the whole struct is obs.TestEventFieldsListEveryField.)
func TestEventWireCoversEveryField(t *testing.T) {
	var want obs.Event
	fillNonZero(t, reflect.ValueOf(&want).Elem(), 7)
	b := appendEvent(nil, &want)
	d := transport.NewDec(b)
	var got obs.Event
	decodeEvent(d, &got)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left over after decode", d.Len())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// A zero event must also round-trip (the all-absent bitmap).
	b = appendEvent(nil, &obs.Event{})
	var zero obs.Event
	decodeEvent(transport.NewDec(b), &zero)
	if !reflect.DeepEqual(zero, obs.Event{}) {
		t.Fatalf("zero event decoded to %+v", zero)
	}
}

// Every exported Job field must survive the frame codec, including the
// zero-time convention for Started/Finished of queued jobs.
func TestJobWireCoversEveryField(t *testing.T) {
	var want Job
	fillNonZero(t, reflect.ValueOf(&want).Elem(), 3)
	b := appendJob(nil, &want)
	var got Job
	d := transport.NewDec(b)
	decodeJob(d, &got)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	// Normalize time zones: the wire carries UnixNano.
	if !got.Submitted.Equal(want.Submitted) || !got.Started.Equal(want.Started) || !got.Finished.Equal(want.Finished) {
		t.Fatalf("times mangled: got %v/%v/%v", got.Submitted, got.Started, got.Finished)
	}
	got.Submitted, want.Submitted = time.Time{}, time.Time{}
	got.Started, want.Started = time.Time{}, time.Time{}
	got.Finished, want.Finished = time.Time{}, time.Time{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("job round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	queued := Job{ID: 1, State: JobQueued, Submitted: time.Now()}
	var back Job
	decodeJob(transport.NewDec(appendJob(nil, &queued)), &back)
	if !back.Started.IsZero() || !back.Finished.IsZero() {
		t.Fatalf("zero times did not survive: %+v", back)
	}
}

// The RPC argument and reply pairs must round-trip, including the
// optional SimApp pointer both ways.
func TestRPCMessagesRoundTrip(t *testing.T) {
	roundTrip := func(t *testing.T, in interface {
		transport.Appender
	}, out interface {
		transport.Decoder
	}) {
		t.Helper()
		d := transport.NewDec(in.AppendWire(nil))
		out.DecodeWire(d)
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		if d.Len() != 0 {
			t.Fatalf("%d bytes left over", d.Len())
		}
	}

	withApp := &SubmitArgs{TaskXML: "<task/>", Algorithm: "uniform", Priority: "high",
		SimApp: &SimApp{UnitCost: 1.5, BytesPerUnit: 2.5, Gamma: 0.25}}
	var gotSubmit SubmitArgs
	roundTrip(t, withApp, &gotSubmit)
	if !reflect.DeepEqual(&gotSubmit, withApp) {
		t.Fatalf("SubmitArgs: got %+v", gotSubmit)
	}
	noApp := &SubmitArgs{TaskXML: "<task/>"}
	gotSubmit = SubmitArgs{SimApp: &SimApp{}}
	roundTrip(t, noApp, &gotSubmit)
	if gotSubmit.SimApp != nil {
		t.Fatal("nil SimApp did not survive")
	}

	reply := &SubmitReply{JobID: 9, Algorithm: "rumr", TotalLoad: 200, State: JobQueued}
	var gotReply SubmitReply
	roundTrip(t, reply, &gotReply)
	if gotReply != *reply {
		t.Fatalf("SubmitReply: got %+v", gotReply)
	}

	algs := &AlgorithmsReply{Names: []string{"uniform", "rumr", "fixed-1"}}
	var gotAlgs AlgorithmsReply
	roundTrip(t, algs, &gotAlgs)
	if !reflect.DeepEqual(gotAlgs.Names, algs.Names) {
		t.Fatalf("AlgorithmsReply: got %+v", gotAlgs)
	}

	ev := &EventsReply{State: JobRunning, Dropped: true,
		Events: []obs.Event{{Seq: 1, Type: obs.JobQueued, Class: "high"}, {Seq: 2, Probe: true}}}
	var gotEv EventsReply
	roundTrip(t, ev, &gotEv)
	if !reflect.DeepEqual(&gotEv, ev) {
		t.Fatalf("EventsReply: got %+v want %+v", gotEv, ev)
	}

	jobs := &ListJobsReply{Jobs: []Job{{ID: 1, State: JobDone}, {ID: 2, State: JobQueued, QueuePos: 1}}}
	var gotJobs ListJobsReply
	roundTrip(t, jobs, &gotJobs)
	if len(gotJobs.Jobs) != 2 || gotJobs.Jobs[0].ID != 1 || gotJobs.Jobs[1].QueuePos != 1 {
		t.Fatalf("ListJobsReply: got %+v", gotJobs)
	}
}

// randomEvent fills a random subset of ev's fields with values of every
// shape the codec must carry: negative and large ints, NaN, infinities
// and -0 (which, like 0, is not sent), and empty and non-ASCII strings.
func randomEvent(rnd *rand.Rand) obs.Event {
	var ev obs.Event
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e300, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64}
	strs := []string{"", "x", "chunk_done", "γ=10%", string(make([]byte, 200))}
	density := rnd.Float64()
	for _, f := range ev.Fields() {
		if rnd.Float64() > density {
			continue
		}
		switch p := f.(type) {
		case *int64:
			*p = rnd.Int63() - rnd.Int63()
		case *int:
			*p = int(rnd.Int63()>>uint(rnd.Intn(63))) - rnd.Intn(3)
		case *float64:
			if *p = floats[rnd.Intn(len(floats))]; rnd.Intn(2) == 0 {
				*p = rnd.NormFloat64() * 1e3
			}
		case *string:
			*p = strs[rnd.Intn(len(strs))]
		case *obs.EventType:
			*p = obs.EventType(strs[rnd.Intn(len(strs))])
		case *bool:
			*p = true
		}
	}
	return ev
}

// TestEventCodecMatchesReference holds the field-list codec to the
// hand-unrolled one it replaced: the same bytes for every event, and
// from those bytes the same event, also when decoding over one that is
// not zero.
func TestEventCodecMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	sameEvent := func(a, b obs.Event) bool {
		// NaN != NaN, and the codec carries float bits, not values.
		return bytes.Equal(refAppendEvent(nil, &a), refAppendEvent(nil, &b))
	}
	for i := 0; i < 20000; i++ {
		ev := randomEvent(rnd)
		want := refAppendEvent(nil, &ev)
		got := appendEvent(nil, &ev)
		if !bytes.Equal(got, want) {
			t.Fatalf("event %d %+v:\n got %x\nwant %x", i, ev, got, want)
		}
		over := randomEvent(rnd)
		back, refBack := over, over
		d := transport.NewDec(got)
		decodeEvent(d, &back)
		refDecodeEvent(transport.NewDec(want), &refBack)
		if d.Err() != nil || d.Len() != 0 {
			t.Fatalf("event %d: decode err %v, %d bytes left", i, d.Err(), d.Len())
		}
		if !sameEvent(back, refBack) {
			t.Fatalf("event %d decoded over %+v:\n got %+v\nwant %+v", i, over, back, refBack)
		}
	}
	// Truncated input fails in both, and never panics.
	ev := randomEvent(rnd)
	enc := appendEvent(nil, &ev)
	for n := range enc {
		var a, b obs.Event
		d, rd := transport.NewDec(enc[:n]), transport.NewDec(enc[:n])
		decodeEvent(d, &a)
		refDecodeEvent(rd, &b)
		if (d.Err() == nil) != (rd.Err() == nil) {
			t.Fatalf("truncated to %d bytes: err %v, reference %v", n, d.Err(), rd.Err())
		}
	}
}

// BenchmarkEventCodec measures the field-list codec on a typical
// scheduler event (ChunkDone: 12 fields set).
func BenchmarkEventCodec(b *testing.B) {
	ev := obs.Event{Seq: 812, T: 4031.5, Type: obs.ChunkDone, Worker: 7, Chunk: 44, Size: 512.25, Bytes: 512250,
		SendStart: 3901.25, SendEnd: 3913.5, CompStart: 3913.5, CompEnd: 4031.5, OutputEnd: 4031.5}
	enc := appendEvent(nil, &ev)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			buf = appendEvent(buf[:0], &ev)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var out obs.Event
		for i := 0; i < b.N; i++ {
			decodeEvent(transport.NewDec(enc), &out)
		}
	})
	b.Run("encode-reference", func(b *testing.B) {
		buf := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			buf = refAppendEvent(buf[:0], &ev)
		}
	})
	b.Run("decode-reference", func(b *testing.B) {
		var out obs.Event
		for i := 0; i < b.N; i++ {
			refDecodeEvent(transport.NewDec(enc), &out)
		}
	})
}
