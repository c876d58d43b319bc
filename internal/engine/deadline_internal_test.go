package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"apstdv/internal/dls"
	"apstdv/internal/grid"
	"apstdv/internal/model"
	"apstdv/internal/obs"
	"apstdv/internal/rng"
	"apstdv/internal/workload"
)

// stageOp is one stage operation of a work chunk as deadlineProbe saw
// it: the attempt it belongs to, the instant it was issued, the absolute
// deadline the engine armed for it, and the instant the backend
// completed it — whether or not the engine still wanted it by then
// (NaN until it does).
type stageOp struct {
	chunk, attempt int
	start, at, end float64
}

// timerArm is one AfterFunc call: the clock when it was made, the
// deadline instant the engine armed it for, and whether it was made
// from inside a timer firing.
type timerArm struct {
	now, target float64
	inFiring    bool
}

// deadlineProbe wraps a simulated backend to observe the deadline path
// from outside the engine's bookkeeping: every stage operation the
// engine issues (with the deadline its stage was armed for, read off the
// deadline set at issue), when the backend completes it, every backend
// timer armed, cancelled and fired, and the first callback that left
// the run failed.
type deadlineProbe struct {
	*grid.Backend
	e        *execution
	ops      []stageOp
	byToken  map[uint64]int
	arms     []timerArm
	armed    map[TimerID]bool
	firing   bool
	lastFire float64
	lastDone float64
	failAt   float64
}

func newDeadlineProbe(b *grid.Backend, e *execution) *deadlineProbe {
	return &deadlineProbe{Backend: b, e: e, byToken: map[uint64]int{},
		armed: map[TimerID]bool{}, lastFire: math.Inf(-1), lastDone: math.Inf(-1), failAt: math.Inf(1)}
}

// issue records a stage operation and returns its done, wrapped to
// record the completion.
func (p *deadlineProbe) issue(op uint64, done func(op uint64, start, end float64, err error)) func(op uint64, start, end float64, err error) {
	if c := p.e.chunkFromOp(op); c != nil && c.kind == kindWork {
		at := math.NaN()
		if c.deadlineIdx > 0 {
			at = p.e.deadlines[c.deadlineIdx-1].at
		}
		p.byToken[op] = len(p.ops)
		p.ops = append(p.ops, stageOp{chunk: c.id, attempt: c.attempt, start: p.Now(), at: at, end: math.NaN()})
	}
	return func(op uint64, start, end float64, err error) {
		now := p.Now()
		p.lastDone = max(p.lastDone, now)
		if i, ok := p.byToken[op]; ok {
			p.ops[i].end = now
		}
		done(op, start, end, err)
		p.checkFailed()
	}
}

func (p *deadlineProbe) checkFailed() {
	if p.e.err != nil && math.IsInf(p.failAt, 1) {
		p.failAt = p.Now()
	}
}

func (p *deadlineProbe) TransferOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	p.Backend.TransferOp(w, bytes, op, p.issue(op, done))
}

func (p *deadlineProbe) ExecuteOp(w int, size float64, probe bool, op uint64, done func(op uint64, start, end float64, err error)) {
	p.Backend.ExecuteOp(w, size, probe, op, p.issue(op, done))
}

func (p *deadlineProbe) ReturnOutputOp(w int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	p.Backend.ReturnOutputOp(w, bytes, op, p.issue(op, done))
}

func (p *deadlineProbe) PeerTransferOp(from, to int, bytes float64, op uint64, done func(op uint64, start, end float64, err error)) {
	p.Backend.PeerTransferOp(from, to, bytes, op, p.issue(op, done))
}

func (p *deadlineProbe) AfterFunc(d float64, fn func(TimerID)) TimerID {
	p.arms = append(p.arms, timerArm{now: p.Now(), target: p.e.timerAt, inFiring: p.firing})
	id := p.Backend.AfterFunc(d, func(id TimerID) {
		delete(p.armed, id)
		p.lastFire = max(p.lastFire, p.Now())
		p.firing = true
		fn(id)
		p.firing = false
		p.checkFailed()
	})
	p.armed[id] = true
	return id
}

func (p *deadlineProbe) CancelTimer(id TimerID) {
	delete(p.armed, id)
	p.Backend.CancelTimer(id)
}

// probeRun executes one run of alg on platform under gcfg and cfg with
// the retry layer on, through a deadlineProbe, and returns the probe
// and the run's event stream.
func probeRun(t *testing.T, platform *model.Platform, app *model.Application, alg string, gcfg grid.Config, cfg Config) (*deadlineProbe, []obs.Event, error) {
	t.Helper()
	b, err := grid.New(platform, app, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dls.New(alg)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	arena.e = &execution{}
	p := newDeadlineProbe(b, arena.e)
	events := obs.NewBuffer()
	cfg.Events, cfg.Retry = events, &RetryPolicy{Redistribute: true}
	_, runErr := Execute(context.Background(), Request{
		Backend: p, Algorithm: a, App: app, Platform: platform, Arena: arena, Config: cfg,
	})
	return p, events.Events(), runErr
}

// checkDeadlines asserts the deadline contract on one probed run: a
// stage times out if and only if its operation would outlive the
// deadline it was armed with (it is still running at that instant and
// nothing abandoned it first), at exactly that instant — stage start
// plus the timeout event's duration, bit for bit — and no backend timer
// is left armed or fires after the run's last operation completed. It
// returns the number of timeouts.
func checkDeadlines(t *testing.T, name string, p *deadlineProbe, evs []obs.Event) int {
	t.Helper()
	type attempt struct{ chunk, attempt int }
	timedOut := map[attempt]obs.Event{}
	abandoned := map[attempt]float64{}
	for _, ev := range evs {
		k := attempt{ev.Chunk, ev.Attempt}
		switch ev.Type {
		case obs.ChunkTimeout:
			timedOut[k] = ev
		case obs.ChunkRetry:
			if _, ok := abandoned[k]; !ok {
				abandoned[k] = ev.T
			}
		}
	}
	matched := map[attempt]bool{}
	for _, op := range p.ops {
		if math.IsNaN(op.at) {
			continue
		}
		k := attempt{op.chunk, op.attempt}
		if math.IsNaN(op.end) {
			t.Fatalf("%s: chunk %d attempt %d: stage issued at %v never completed", name, op.chunk, op.attempt, op.start)
		}
		ev, out := timedOut[k]
		if out && op.start < ev.T && ev.T <= op.end {
			// This stage was the one in flight when the attempt timed out.
			matched[k] = true
			if ev.T != op.at || op.start+ev.Dur != ev.T {
				t.Errorf("%s: chunk %d attempt %d timed out at %v (%x); armed at %v for %v, deadline %v (%x)",
					name, op.chunk, op.attempt, ev.T, math.Float64bits(ev.T), op.start, ev.Dur, op.at, math.Float64bits(op.at))
			}
			if op.end <= ev.T {
				t.Errorf("%s: chunk %d attempt %d timed out at %v, but its stage completed at %v",
					name, op.chunk, op.attempt, ev.T, op.end)
			}
			continue
		}
		if op.end <= op.at {
			continue // completed in time: no timeout, which the match above would have caught
		}
		if at, ok := abandoned[k]; ok && at <= op.at || p.failAt <= op.at {
			continue // abandoned, or the run failed, before the deadline came
		}
		t.Errorf("%s: chunk %d attempt %d: stage armed at %v for deadline %v ran until %v without timing out",
			name, op.chunk, op.attempt, op.start, op.at, op.end)
	}
	for k, ev := range timedOut {
		if !matched[k] {
			t.Errorf("%s: chunk %d attempt %d timed out at %v with no stage in flight", name, k.chunk, k.attempt, ev.T)
		}
	}
	if len(p.armed) != 0 {
		t.Errorf("%s: %d backend timers still armed after the run", name, len(p.armed))
	}
	if p.lastFire > p.lastDone {
		t.Errorf("%s: a deadline timer fired at %v, after the last operation completed at %v", name, p.lastFire, p.lastDone)
	}
	if now := p.Now(); now != max(p.lastDone, p.lastFire) {
		t.Errorf("%s: backend clock ended at %v, not at the last callback %v", name, now, max(p.lastDone, p.lastFire))
	}
	return len(timedOut)
}

// rearmedTimeouts counts the run's timeouts that fired through a timer
// re-armed by an earlier firing, and the re-arms from a firing aimed at
// an instant the plain delay at − now misses: now + (at − now) ≠ at.
func rearmedTimeouts(p *deadlineProbe, evs []obs.Event) (rearmed, missed int) {
	for _, a := range p.arms {
		if a.inFiring && a.now+(a.target-a.now) != a.target {
			missed++
		}
	}
	for _, ev := range evs {
		if ev.Type != obs.ChunkTimeout {
			continue
		}
		for _, a := range p.arms {
			if a.inFiring && a.target == ev.T {
				rearmed++
				break
			}
		}
	}
	return rearmed, missed
}

// faultPlan draws a seeded plan of one to three faults over the
// platform's workers, of every kind grid models — stalls and slowdowns
// only the stage deadlines can see, and crashes — with onsets inside
// span and windows up to half of it.
func faultPlan(seed uint64, workers int, span float64) *grid.FaultPlan {
	src := rng.Stream(seed, "engine/deadline-plan")
	plan := &grid.FaultPlan{}
	for n := 1 + int(src.Uint64()%3); n > 0; n-- {
		f := grid.WorkerFault{
			Worker:   int(src.Uint64() % uint64(workers)),
			Kind:     []grid.FaultKind{grid.FaultStall, grid.FaultStall, grid.FaultSlowdown, grid.FaultCrash}[src.Uint64()%4],
			At:       src.Uniform(0, span),
			Duration: src.Uniform(0.05, 0.5) * span,
			Factor:   src.Uniform(2, 40),
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}

// TestStageDeadlinesFireExactlyWhenOutlived checks the deadline contract
// over seeded stall, slowdown and crash plans on star and tree
// platforms under four algorithms (the sim_fault_tree benchmark's), and
// that the plans exercise it: deadlines fire, including ones re-armed
// by an earlier firing.
func TestStageDeadlinesFireExactlyWhenOutlived(t *testing.T) {
	app := workload.Synthetic(0.10)
	platforms := []*model.Platform{workload.Mixed(4, 4), workload.WithTreeTopology(workload.Mixed(4, 4))}
	timeouts, rearmed, missed, failed := 0, 0, 0, 0
	for pi, platform := range platforms {
		for _, alg := range []string{"wf", "simple-50", "gss", "factoring-plain"} {
			p, _, err := probeRun(t, platform, app, alg, grid.Config{Seed: 1}, Config{ProbeLoad: 200})
			if err != nil {
				t.Fatalf("fault-free %s: %v", alg, err)
			}
			span := p.lastDone
			for seed := uint64(1); seed <= 12; seed++ {
				name := fmt.Sprintf("platform %d/%s/seed %d", pi, alg, seed)
				plan := faultPlan(seed*31+uint64(pi), len(platform.Workers), span)
				p, evs, err := probeRun(t, platform, app, alg, grid.Config{Seed: seed, Faults: plan}, Config{ProbeLoad: 200})
				if err != nil {
					failed++
				}
				timeouts += checkDeadlines(t, name, p, evs)
				r, m := rearmedTimeouts(p, evs)
				rearmed += r
				missed += m
			}
		}
	}
	t.Logf("%d timeouts, %d through a timer re-armed by a firing; %d re-arms for an instant at − now misses; %d failed runs",
		timeouts, rearmed, missed, failed)
	if timeouts < 20 || rearmed == 0 {
		t.Errorf("the plans fired %d deadlines, %d through a re-armed timer; want ≥ 20 and > 0", timeouts, rearmed)
	}
}

// TestRearmedDeadlineFiresAtItsOwnInstant pins the one deadline instant
// plain float arithmetic cannot reach. Two workers get one chunk each
// under a one-round oracle plan, and worker 1 stalls for good from
// t = 10. Its transfer deadline, cancelled when the transfer completes,
// still holds the backend timer; that firing finds nothing due and
// re-arms for worker 1's compute deadline at, from a now where
// now + (at − now) rounds past at and no delay reaches at exactly. The
// timeout must still come at stage start + deadline, bit for bit.
func TestRearmedDeadlineFiresAtItsOwnInstant(t *testing.T) {
	platform := &model.Platform{Name: "exact-instant"}
	for i := 0; i < 2; i++ {
		platform.Workers = append(platform.Workers, model.Worker{
			ID: i, Name: "w", Cluster: "c",
			Speed: 1, CompLatency: 1.3, Bandwidth: 1e6, CommLatency: 3,
		})
	}
	app := &model.Application{Name: "app", TotalLoad: 1000, BytesPerUnit: 1000, UnitCost: 0.11, MinChunk: 1}
	plan := &grid.FaultPlan{Faults: []grid.WorkerFault{{Worker: 1, Kind: grid.FaultStall, At: 10, Duration: 1e5}}}
	p, evs, err := probeRun(t, platform, app, "one-round", grid.Config{Seed: 1, Faults: plan}, Config{Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	var timeouts []obs.Event
	for _, ev := range evs {
		if ev.Type == obs.ChunkTimeout {
			timeouts = append(timeouts, ev)
		}
	}
	if len(timeouts) != 1 || timeouts[0].Worker != 1 {
		t.Fatalf("timeouts %+v; want one, on the stalled worker 1", timeouts)
	}
	at, covered := 0.0, false
	for _, op := range p.ops {
		if op.chunk == timeouts[0].Chunk && op.attempt == timeouts[0].Attempt && op.start < timeouts[0].T {
			at = op.at // the stage in flight when the attempt timed out
		}
	}
	for _, a := range p.arms {
		covered = covered || a.inFiring && a.target == at && a.now+(at-a.now) != at
	}
	if !covered {
		t.Fatalf("no firing re-armed for the deadline %v from a now where now + (at − now) ≠ at; the scenario no longer covers it", at)
	}
	if n := checkDeadlines(t, "exact-instant", p, evs); n != 1 {
		t.Errorf("checkDeadlines counted %d timeouts, want 1", n)
	}
}
