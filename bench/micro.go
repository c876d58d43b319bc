package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"apstdv/internal/daemon"
	"apstdv/internal/divide"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/obs"
	otrace "apstdv/internal/obs/trace"
	"apstdv/internal/rng"
	"apstdv/internal/sim"
	"apstdv/internal/spec"
	"apstdv/internal/stats"
	"apstdv/internal/transport"
	"apstdv/internal/units"
	"apstdv/internal/workload"
)

// The "M" metrics: each times one layer's public functions directly, in
// a loop, from here. They are the same work in every traced run, so a
// moved end-to-end number can be pinned to a layer without bisecting.

// perIter runs fn(iters) reps times and returns the median time per
// iteration in nanoseconds.
func perIter(reps, iters int, fn func(iters int)) float64 {
	ts := make([]float64, reps)
	for r := range ts {
		t0 := time.Now()
		fn(iters)
		ts[r] = float64(time.Since(t0)) / float64(iters)
	}
	return stats.Median(ts)
}

var microSink float64

func microMetrics(into map[string]measured) error {
	for _, f := range []func(map[string]measured) error{
		microGrid, microSim, microSmall, microObs, microWire, microDaemon, microTransport, microScaling,
	} {
		if err := f(into); err != nil {
			return err
		}
	}
	return nil
}

func microGrid(into map[string]measured) error {
	p := workload.DAS2(16)
	app := workload.Synthetic(0.10)
	cfg := grid.Config{Seed: 1}
	var err error
	into["grid.new_us"] = scalar(perIter(5, 200, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, err = grid.New(p, app, cfg)
		}
	})/1e3, "us")
	if err != nil {
		return err
	}
	b, err := grid.New(p, app, cfg)
	if err != nil {
		return err
	}
	into["grid.reset_us"] = scalar(perIter(5, 500, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = b.Reset(app, cfg)
		}
	})/1e3, "us")
	if err != nil {
		return err
	}

	// One co-scheduled batch, fair policy, three jobs: host time per
	// simulated chunk in the multi-job world.
	w, err := newSimMultiJob(1)
	if err != nil {
		return err
	}
	lat := make([]float64, w.runs)
	out := make([]outcome, w.runs)
	var chunks int
	ns := perIter(5, 1, func(int) {
		var st passStats
		if st, err = w.pass(nil, lat, out); err == nil {
			chunks = st.chunks
		}
	})
	if err != nil {
		return err
	}
	into["grid.multi_ns_per_chunk"] = scalar(ns/float64(chunks), "ns")
	return nil
}

// heapChurn fires total events through a sim.Engine that always holds
// depth pending ones: every event that fires schedules its successor.
func heapChurn(depth, total int) {
	eng := sim.New()
	left := total
	var fire func(uint64)
	fire = func(arg uint64) {
		if left > 0 {
			left--
			eng.AfterArg(units.Seconds(1+arg*7919%13), fire, arg+1)
		}
	}
	for i := 0; i < depth; i++ {
		eng.AfterArg(units.Seconds(1+i%7), fire, uint64(i))
	}
	eng.Run()
}

func microSim(into map[string]measured) error {
	const events = 200_000
	into["sim.ns_per_event_d32"] = scalar(perIter(5, events, func(n int) { heapChurn(32, n) }), "ns")
	into["sim.ns_per_event_d1024"] = scalar(perIter(5, events, func(n int) { heapChurn(1024, n) }), "ns")

	eng := sim.New()
	timers := sim.NewTimers(eng, 4)
	nop := func(sim.TimerID) {}
	into["sim.timer_arm_cancel_ns"] = scalar(perIter(5, 200_000, func(n int) {
		for i := 0; i < n; i++ {
			timers.Cancel(timers.After(units.Seconds(30+i%500), nop))
		}
	}), "ns")

	dur := func(arg uint64, _ units.Seconds) units.Seconds { return units.Seconds(1 + arg%3) }
	done := func(uint64, units.Seconds, units.Seconds) {}
	into["sim.fcfs_ns_per_job"] = scalar(perIter(5, 100_000, func(n int) {
		e := sim.New()
		q := sim.NewFCFSQueue(e)
		for i := 0; i < n; i++ {
			q.EnqueueArg(uint64(i), dur, done)
		}
		e.Run()
	}), "ns")
	return nil
}

// microSmall times the leaf packages: rng, trace, stats, spec, divide.
func microSmall(into map[string]measured) error {
	src := rng.New(1)
	into["rng.normal_ns"] = scalar(perIter(5, 500_000, func(n int) {
		s := 0.0
		for i := 0; i < n; i++ {
			s += src.Normal(1, 0.1)
		}
		microSink += s
	}), "ns")

	// The trace of one 800-chunk dispatch run, reported over and over.
	p := workload.DAS2(16)
	app := workload.Synthetic(0.10)
	b, err := grid.New(p, app, grid.Config{Seed: 1})
	if err != nil {
		return err
	}
	tr, err := engine.Execute(context.Background(), engine.Request{
		Backend: b, Algorithm: algByName("simple-50")(), App: app, Platform: p,
		Config: engine.Config{ProbeLoad: 200},
	})
	if err != nil {
		return err
	}
	into["trace.report_us_per_run"] = scalar(perIter(5, 200, func(n int) {
		for i := 0; i < n; i++ {
			microSink += tr.BuildReport(len(p.Workers)).Makespan
		}
	})/1e3, "us")

	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	into["stats.summary_ns"] = scalar(perIter(5, 200_000, func(n int) {
		for i := 0; i < n; i++ {
			microSink += stats.Summarize(xs).Mean
		}
	}), "ns")

	xml := jobSpecXML(20000, "umr")
	into["spec.parse_us"] = scalar(perIter(5, 2000, func(n int) {
		for i := 0; i < n && err == nil; i++ {
			_, err = spec.Parse(strings.NewReader(xml))
		}
	})/1e3, "us")
	if err != nil {
		return err
	}

	wu, err := divide.NewWorkUnits(4000)
	if err != nil {
		return err
	}
	into["divide.cut_ns"] = scalar(perIter(5, 1_000_000, func(n int) {
		s := 0.0
		for i := 0; i < n; i++ {
			from := float64(i % 3990)
			s += wu.CutAfter(from, from+2.4)
		}
		microSink += s
	}), "ns")
	return nil
}

func microObs(into map[string]measured) error {
	ev := obs.Event{Type: obs.ChunkDone, Worker: 3, Chunk: 17, Size: 250, Alg: "umr"}
	const ringCap = 8192 // the daemon's per-job ring
	var ring *obs.Ring
	into["obs.ring_emit_ns_growing"] = scalar(perIter(9, ringCap, func(n int) {
		ring = obs.NewRing(ringCap)
		for i := 0; i < n; i++ {
			ev.Seq = int64(i)
			ring.EmitPtr(&ev)
		}
	}), "ns")
	into["obs.ring_emit_ns_full"] = scalar(perIter(5, 200_000, func(n int) {
		for i := 0; i < n; i++ {
			ev.Seq = int64(i)
			ring.EmitPtr(&ev)
		}
	}), "ns")

	c := otrace.New(0)
	tid := c.NewTraceID()
	into["obs.span_record_ns"] = scalar(perIter(5, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			c.Begin(tid, 0, "bench.span").End(nil)
		}
	}), "ns")
	return nil
}

func microWire(into map[string]measured) error {
	args := daemon.SubmitArgs{
		TaskXML: jobSpecXML(20000, "umr"), Algorithm: "umr", Priority: "normal",
		SimApp: &daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 1000},
	}
	var buf []byte
	into["daemon.wire_submit_enc_ns"] = scalar(perIter(5, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			buf = args.AppendWire(buf[:0])
		}
	}), "ns")
	var derr error
	into["daemon.wire_submit_dec_ns"] = scalar(perIter(5, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			var a daemon.SubmitArgs
			d := transport.NewDec(buf)
			a.DecodeWire(d)
			if d.Err() != nil {
				derr = d.Err()
			}
		}
	}), "ns")
	if derr != nil {
		return fmt.Errorf("submit args round trip: %w", derr)
	}

	now := time.Now()
	st := daemon.StatusReply{Job: daemon.Job{
		ID: 12345, Algorithm: "umr", Priority: "normal", State: daemon.JobDone,
		Submitted: now, Started: now.Add(time.Millisecond), Finished: now.Add(2 * time.Millisecond),
		Makespan: 1234.5, Chunks: 32,
	}}
	var jbuf []byte
	into["daemon.wire_job_enc_ns"] = scalar(perIter(5, 200_000, func(n int) {
		for i := 0; i < n; i++ {
			jbuf = st.AppendWire(jbuf[:0])
		}
	}), "ns")
	into["daemon.wire_job_dec_ns"] = scalar(perIter(5, 200_000, func(n int) {
		for i := 0; i < n; i++ {
			var r daemon.StatusReply
			d := transport.NewDec(jbuf)
			r.DecodeWire(d)
			if d.Err() != nil {
				derr = d.Err()
			}
		}
	}), "ns")
	if derr != nil {
		return fmt.Errorf("status reply round trip: %w", derr)
	}

	// A report the size the closed loop fetches: 16 chunks.
	rep := daemon.ReportReply{
		Summary: strings.Repeat("summary line\n", 12),
		CSV:     strings.Repeat("0,0,0.000000,1.000000,false,0.0,6.4,6.4,7.1,7.1,1,false\n", 16),
		Gantt:   strings.Repeat(strings.Repeat("#", 100)+"\n", 16),
	}
	var rbuf []byte
	into["daemon.wire_report_enc_us"] = scalar(perIter(5, 50_000, func(n int) {
		for i := 0; i < n; i++ {
			rbuf = rep.AppendWire(rbuf[:0])
		}
	})/1e3, "us")
	return nil
}

// microDaemon calls the Daemon's methods with no transport in between.
func microDaemon(into map[string]measured) error {
	newDaemon := func(queue int) (*daemon.Daemon, error) {
		return daemon.New(daemon.Config{
			Mode: daemon.ModeSim, Platform: workload.DAS2(16), Seed: 1,
			MaxConcurrentJobs: 1, QueueDepth: queue, RetainJobs: 256,
		})
	}
	small := daemon.SubmitArgs{
		TaskXML: jobSpecXML(16, "simple-1"), Algorithm: "simple-1",
		SimApp: &daemon.SimApp{UnitCost: 0.05, BytesPerUnit: 1000},
	}

	// Admission: submit, then let the job finish, so every call finds
	// the slot free and the queue empty.
	d, err := newDaemon(64)
	if err != nil {
		return err
	}
	var ts []float64
	var last int
	for i := 0; i < 400; i++ {
		var r daemon.SubmitReply
		t0 := time.Now()
		err := d.Submit(small, &r)
		ts = append(ts, float64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("micro submit: %w", err)
		}
		last = r.JobID
		d.Wait()
	}
	into["daemon.submit_admit_us"] = scalar(stats.Median(ts)/1e3, "us")

	var serr error
	into["daemon.status_ns"] = scalar(perIter(5, 100_000, func(n int) {
		for i := 0; i < n; i++ {
			var r daemon.StatusReply
			if err := d.Status(daemon.StatusArgs{JobID: last}, &r); err != nil {
				serr = err
			}
		}
	}), "ns")
	if serr != nil {
		return fmt.Errorf("micro status: %w", serr)
	}
	// 400 jobs went through a daemon retaining 256.
	var listed int
	into["daemon.listjobs_us_per_256"] = scalar(perIter(5, 200, func(n int) {
		for i := 0; i < n; i++ {
			var r daemon.ListJobsReply
			if err := d.ListJobs(daemon.ListJobsArgs{}, &r); err != nil {
				serr = err
			}
			listed = len(r.Jobs)
		}
	})/1e3, "us")
	if serr != nil {
		return fmt.Errorf("micro listjobs: %w", serr)
	}
	if listed != 256 {
		return fmt.Errorf("micro listjobs: %d jobs listed, want the 256 retained", listed)
	}

	// Rejection: one long job holds the slot, one fills the queue of
	// depth 1, and every further submission is refused.
	d, err = newDaemon(1)
	if err != nil {
		return err
	}
	long := small
	long.TaskXML, long.Algorithm = jobSpecXML(400_000, "simple-25000"), "simple-25000"
	var held []int
	for i := 0; i < 2; i++ {
		var r daemon.SubmitReply
		if err := d.Submit(long, &r); err != nil {
			return fmt.Errorf("micro blocker: %w", err)
		}
		held = append(held, r.JobID)
	}
	rejected := 0
	into["daemon.submit_reject_ns"] = scalar(perIter(5, 4000, func(n int) {
		for i := 0; i < n; i++ {
			var r daemon.SubmitReply
			if errors.Is(d.Submit(small, &r), daemon.ErrQueueFull) {
				rejected++
			}
		}
	}), "ns")
	for _, id := range held {
		var r daemon.CancelReply
		if err := d.Cancel(daemon.CancelArgs{JobID: id}, &r); err != nil {
			return fmt.Errorf("micro cancel: %w", err)
		}
	}
	d.Wait()
	if rejected != 5*4000 {
		return fmt.Errorf("micro reject: %d of %d submissions refused; the blockers finished too early", rejected, 5*4000)
	}
	return nil
}

// echoMsg is the smallest frame payload: one varint each way.
type echoMsg struct{ V int64 }

func (m *echoMsg) AppendWire(b []byte) []byte  { return transport.AppendVarint(b, m.V) }
func (m *echoMsg) DecodeWire(d *transport.Dec) { m.V = d.Varint() }

const methodEcho = 1

func microTransport(into map[string]measured) error {
	srv := transport.NewServer(transport.ServerConfig{})
	transport.Register[echoMsg, echoMsg](srv, methodEcho, func(a, r *echoMsg) error {
		r.V = a.V
		return nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	conn, err := transport.Dial(ln.Addr().String(), transport.Config{})
	if err != nil {
		return err
	}
	defer conn.Close()

	// One call in flight: the loopback round trip.
	rtts := make([]float64, 0, 3000)
	for i := 0; i < 3200; i++ {
		var r echoMsg
		t0 := time.Now()
		if err := conn.Call(methodEcho, &echoMsg{V: int64(i)}, &r); err != nil {
			return fmt.Errorf("echo: %w", err)
		}
		if i >= 200 {
			rtts = append(rtts, float64(time.Since(t0)))
		}
	}
	sort.Float64s(rtts)
	into["transport.echo_rtt_us_p50"] = scalar(quantileSorted(rtts, 0.5)/1e3, "us")

	// 32 callers on the one connection.
	const callers, each = 32, 1000
	var wg sync.WaitGroup
	errs := make([]error, callers)
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var r echoMsg
			for i := 0; i < each && errs[c] == nil; i++ {
				errs[c] = conn.Call(methodEcho, &echoMsg{V: int64(i)}, &r)
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("echo w32: %w", err)
		}
	}
	into["transport.echo_calls_per_s_w32"] = scalar(callers*each/el, "1/s")
	return nil
}

// microScaling is the width-2 scaling gate: the paper specs at
// Parallelism 2 against Parallelism 1, alternating.
func microScaling(into map[string]measured) error {
	timeAt := func(width int) (float64, error) {
		specs := paperSpecs(1)
		t0 := time.Now()
		for _, s := range specs {
			s.Parallelism = width
			if _, err := s.Run(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)), nil
	}
	var w1, w2 []float64
	for r := 0; r < 3; r++ {
		a, err := timeAt(1)
		if err != nil {
			return err
		}
		b, err := timeAt(2)
		if err != nil {
			return err
		}
		w1, w2 = append(w1, a), append(w2, b)
	}
	into["parallel.scaling_w2"] = scalar(stats.Median(w1)/stats.Median(w2), "ratio")
	return nil
}
