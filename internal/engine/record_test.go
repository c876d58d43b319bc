package engine_test

import (
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/engine"
	"apstdv/internal/grid"
	"apstdv/internal/obs"
	"apstdv/internal/trace"
)

// Spies over concrete algorithms: embedding the pointer promotes every
// optional interface the algorithm implements, so the engine schedules
// exactly as it would with the bare algorithm. Observe keeps its
// argument and passes it on.
type wfSpy struct {
	*dls.WeightedFactoring
	got []dls.Observation
}

func (s *wfSpy) Observe(o dls.Observation) {
	s.got = append(s.got, o)
	s.WeightedFactoring.Observe(o)
}

type rumrSpy struct {
	*dls.RUMR
	got []dls.Observation
}

func (s *rumrSpy) Observe(o dls.Observation) {
	s.got = append(s.got, o)
	s.RUMR.Observe(o)
}

// The trace, the algorithm and the chunk_done events read one record
// per attempt: the observations are the trace's completed records in
// order (probes included), and each chunk_done event carries the
// identity, timeline and attempt of the matching work record. Runs
// return output and cover the fault-free path, crashes under the retry
// layer (failed attempts and retried chunks) and periodic
// recalibration.
func TestOneRecordPerAttempt(t *testing.T) {
	crash := &grid.FaultPlan{Faults: []grid.WorkerFault{
		{Worker: 1, Kind: grid.FaultCrash, At: 20},
	}}
	conds := []struct {
		name   string
		faults *grid.FaultPlan
		cfg    engine.Config
	}{
		{"plain", nil, engine.Config{ProbeLoad: 50}},
		{"crash", crash, engine.Config{ProbeLoad: 50, Retry: &engine.RetryPolicy{}}},
		{"recal", nil, engine.Config{ProbeLoad: 50, RecalibrateInterval: 8}},
	}
	spies := []struct {
		name string
		make func() (dls.Algorithm, *[]dls.Observation)
	}{
		{"wf", func() (dls.Algorithm, *[]dls.Observation) {
			s := &wfSpy{WeightedFactoring: dls.NewWeightedFactoring()}
			return s, &s.got
		}},
		{"rumr", func() (dls.Algorithm, *[]dls.Observation) {
			s := &rumrSpy{RUMR: dls.NewRUMR()}
			return s, &s.got
		}},
	}
	for _, sp := range spies {
		for _, cd := range conds {
			t.Run(sp.name+"/"+cd.name, func(t *testing.T) {
				platform, app := simplePlatform(3), simpleApp()
				app.OutputBytesPerUnit = 100 // OutputEnd after CompEnd
				backend, err := grid.New(platform, app, grid.Config{Seed: 1, Faults: cd.faults})
				if err != nil {
					t.Fatal(err)
				}
				alg, got := sp.make()
				buf := obs.NewBuffer()
				cfg := cd.cfg
				cfg.Events = buf
				tr, err := runEngine(backend, alg, app, platform, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var done, work []trace.Record
				failed, retried := 0, 0
				for _, r := range tr.Records() {
					if r.Attempt > 1 {
						retried++
					}
					if r.Failed {
						failed++
						continue
					}
					done = append(done, r)
					if !r.Probe {
						work = append(work, r)
					}
				}
				if len(done) == len(work) {
					t.Fatal("no probe record in the trace")
				}
				if cd.faults != nil && (failed == 0 || retried == 0) {
					t.Fatalf("the crash left %d failed and %d retried attempts, want both", failed, retried)
				}
				count := countEvents(buf.Events())
				if cd.cfg.RecalibrateInterval > 0 && count[obs.Recalibrate] == 0 {
					t.Fatal("no recalibration ran")
				}
				if len(*got) != len(done) {
					t.Fatalf("%d observations, %d completed records", len(*got), len(done))
				}
				for i, o := range *got {
					if o != done[i] {
						t.Fatalf("observation %d = %+v, record %+v", i, o, done[i])
					}
				}
				i := 0
				for _, ev := range buf.Events() {
					if ev.Type != obs.ChunkDone {
						continue
					}
					if i == len(work) {
						t.Fatalf("chunk_done %d has no work record", i)
					}
					r := work[i]
					attempt := r.Attempt
					if attempt == 1 {
						attempt = 0
					}
					if ev.Worker != r.Worker || ev.Chunk != r.Chunk || ev.Size != r.Size ||
						ev.SendStart != r.SendStart || ev.SendEnd != r.SendEnd ||
						ev.CompStart != r.CompStart || ev.CompEnd != r.CompEnd ||
						ev.OutputEnd != r.OutputEnd || ev.Attempt != attempt {
						t.Fatalf("chunk_done %d = %+v, record %+v", i, ev, r)
					}
					i++
				}
				if i != len(work) {
					t.Fatalf("%d chunk_done events, %d work records", i, len(work))
				}
			})
		}
	}
}
