// Package dls implements the Divisible Load Scheduling algorithms the
// paper evaluates: SIMPLE-n (static chunking), UMR (Uniform Multi-Round),
// Weighted Factoring, RUMR and Fixed-RUMR, plus a classical one-round
// algorithm with affine costs as a related-work baseline.
//
// An Algorithm decides how the load is cut into chunks and in what order
// the chunks are sent to workers. It is driven by the execution engine
// (package engine): after an optional probing round the engine calls Plan
// with per-worker cost estimates, then repeatedly calls Next whenever the
// serialized master uplink is free, and reports every dispatch and
// completion back so adaptive algorithms can refine their estimates.
//
// All load quantities are float64 load units; the engine aligns requested
// sizes to the application's valid cut points, so algorithms treat the
// load as continuous.
package dls

import (
	"fmt"
	"math"

	"apstdv/internal/model"
	"apstdv/internal/trace"
)

// Plan carries everything an algorithm may plan with.
type Plan struct {
	// TotalLoad is the amount of load to schedule, in load units.
	TotalLoad float64
	// MinChunk is the smallest chunk the division method can cut
	// (load units). Algorithms never request less, except for a final
	// remnant smaller than MinChunk.
	MinChunk float64
	// Workers holds one cost estimate per worker, indexed by worker ID.
	Workers []model.Estimate
}

// Validate checks the plan inputs. NaN compares false with everything,
// so the finiteness checks come first.
func (p Plan) Validate() error {
	if math.IsNaN(p.TotalLoad) || math.IsInf(p.TotalLoad, 0) {
		return fmt.Errorf("dls: non-finite total load %g", p.TotalLoad)
	}
	if p.TotalLoad <= 0 {
		return fmt.Errorf("dls: non-positive total load %g", p.TotalLoad)
	}
	if len(p.Workers) == 0 {
		return fmt.Errorf("dls: no workers")
	}
	if math.IsNaN(p.MinChunk) || math.IsInf(p.MinChunk, 0) {
		return fmt.Errorf("dls: non-finite min chunk %g", p.MinChunk)
	}
	if p.MinChunk < 0 {
		return fmt.Errorf("dls: negative min chunk %g", p.MinChunk)
	}
	for _, e := range p.Workers {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("dls: %w", err)
		}
	}
	return nil
}

// State is the engine's view of execution progress, passed to Next.
type State struct {
	// Now is the current time in seconds since execution start.
	Now float64
	// Remaining is the undispatched load (units). The engine's value is
	// authoritative; algorithms should prefer it over internal tallies.
	Remaining float64
	// Pending[i] is the load dispatched to worker i (in transfer, queued
	// or computing) and not yet completed.
	Pending []float64
	// PendingChunks[i] is the number of outstanding chunks at worker i.
	// Demand-driven policies use it to bound per-worker buffering.
	PendingChunks []int
	// InFlight is the number of chunks dispatched and not yet completed.
	InFlight int
	// Completed is the total load computed so far (units).
	Completed float64
}

// Decision is one dispatch: send Size units to worker Worker next.
type Decision struct {
	Worker int
	Size   float64
}

// Observation reports one completed chunk: it is the engine's record of
// the attempt, the same value the run's trace keeps (probe chunks
// included, marked Probe), in seconds since execution start.
type Observation = trace.Record

// Algorithm is a divisible load scheduling policy.
type Algorithm interface {
	// Name identifies the algorithm in reports ("umr", "wf", ...).
	Name() string
	// UsesProbing reports whether the engine should run a probing round
	// before Plan. SIMPLE-n is the only paper algorithm that skips it.
	UsesProbing() bool
	// Plan is called once, after probing, before any dispatch.
	Plan(p Plan) error
	// Next returns the next dispatch decision, or ok=false if the
	// algorithm has nothing to send right now (the engine retries after
	// the next completion event). The engine clamps Size to the
	// remaining load and to valid cut points.
	Next(s State) (d Decision, ok bool)
	// Dispatched reports the size actually cut and sent for a decision,
	// which may differ from the requested size due to cut-point
	// alignment or remaining-load clamping.
	Dispatched(worker int, requested, actual float64)
	// Observe reports a completed chunk (including probe chunks).
	Observe(o Observation)
}

// Recalibrator is an optional interface for algorithms that want the
// refreshed start-up cost measurements the engine's periodic
// recalibration produces (§3.5: "APST-DV obtains these estimates
// periodically by launching no-op jobs on each worker and transferring
// empty files"). Algorithms that do not implement it still run; the
// measurements are simply dropped.
type Recalibrator interface {
	// Recalibrate delivers a fresh (commLatency, compLatency) sample for
	// one worker.
	Recalibrate(worker int, commLatency, compLatency float64)
}

// WorkerLossAware is an optional interface for algorithms that want to
// stop planning over a worker the engine has removed from service
// (blacklisted after repeated failures, or dead during probing).
//
// Contract: the engine owns the returned load — failed chunks re-enter
// State.Remaining and are re-dispatched by the engine itself — so an
// implementation must only stop *targeting* the lost worker in future
// decisions. Algorithms that do not implement the interface still run
// correctly: the engine redirects any decision aimed at a lost worker
// to a surviving one.
type WorkerLossAware interface {
	// WorkerLost reports that worker is out of service and that
	// returnedLoad units it held in flight went back into the
	// undispatched pool (0 when it failed before receiving load).
	WorkerLost(worker int, returnedLoad float64)
}

// RedistributionAware extends WorkerLossAware for algorithms that want
// to see the engine's peer redistributions: when a failed attempt's
// input is moved worker-to-worker to a survivor instead of re-staged
// through the master (engine.RetryPolicy.Redistribute), the engine
// reports the move at launch time. Like returned load, the moved load
// is engine-owned — it never re-enters State.Remaining while in flight
// — so implementations should only adjust their view of worker
// backlogs, not re-plan the load itself. Purely optional; algorithms
// without it run identically.
type RedistributionAware interface {
	WorkerLossAware
	// ChunkRedistributed reports load units moving from the failed
	// worker's site to a surviving worker over the peer path.
	ChunkRedistributed(from, to int, load float64)
}

// SwitchDecision records one evaluation of a two-phase algorithm's
// phase-switch condition — the quantity behind the paper's central
// diagnostic (RUMR's switch firing too late, or never).
type SwitchDecision struct {
	// Gamma is the online γ estimate at evaluation time (-1 while too
	// few observations have accumulated to trust it).
	Gamma float64
	// Want is the desired factoring-phase load (units); the switch can
	// only fire while at least this much load is still undispatched.
	Want float64
	// Remaining is the undispatched load at evaluation time.
	Remaining float64
	// Switched reports whether the factoring phase started here.
	Switched bool
}

// SwitchObservable is an optional interface for algorithms that log
// phase-switch evaluations. The engine drains the log after each
// planning and dispatch step and re-emits the entries as observability
// events; algorithms that never accumulate entries cost nothing.
type SwitchObservable interface {
	// DrainSwitchDecisions returns the evaluations recorded since the
	// last drain and clears the log. It returns nil when empty. The
	// returned slice shares the log's storage: it is valid until the
	// algorithm's next call, so a caller uses it (the engine emits each
	// entry at once) or copies it before calling the algorithm again.
	DrainSwitchDecisions() []SwitchDecision
}

// sumSizes totals the load covered by a dispatch sequence.
func sumSizes(seq []Decision) float64 {
	total := 0.0
	for _, d := range seq {
		total += d.Size
	}
	return total
}

// sequencePlayer is everything but Plan of an algorithm that
// precomputes its dispatch sequence (SIMPLE-n, UMR, one-round, mi-M, and
// the UMR phase of the RUMR variants): it serves decisions in order, does
// not adapt, and retargets a lost worker's unserved decisions. The final
// decision absorbs cut-point alignment drift — the difference between
// the planned total and what was actually dispatched after the divider
// rounded each chunk — so a remnant can neither strand the load nor leak
// into a later phase's share.
type sequencePlayer struct {
	seq        []Decision
	pos        int
	planned    float64
	dispatched float64
	// dead marks, by worker index, workers removed from service;
	// unserved decisions are retargeted away from them (see WorkerLost).
	// targeted is WorkerLost's scratch: the workers the plan names.
	dead, targeted []bool
}

// sequenceDust is the largest remainder, relative to the planned total,
// that the final decision of a sequence takes along: a thousand times
// the rounding a planner tolerates, and far below any share an algorithm
// sets aside for a later phase (Fixed-RUMR's is a fifth of the load).
const sequenceDust = 1e-9

// reset installs a new sequence.
func (s *sequencePlayer) reset(seq []Decision) {
	s.seq = seq
	s.pos = 0
	s.planned = sumSizes(seq)
	s.dispatched = 0
	clear(s.dead)
}

// WorkerLost implements WorkerLossAware: it retargets every unserved
// decision aimed at the lost worker onto the surviving workers, rotating
// through them in index order so the orphaned share spreads instead of
// piling onto one survivor. The candidate set is every worker the plan
// ever targeted minus the dead; if none survive the sequence is left
// alone and the engine's own redirection (or its no-workers failure)
// takes over.
func (s *sequencePlayer) WorkerLost(lost int, returnedLoad float64) {
	n := lost + 1
	for _, d := range s.seq {
		n = max(n, d.Worker+1)
	}
	if n > len(s.dead) {
		buf := make([]bool, 2*n) // one array backs both columns
		copy(buf, s.dead)
		s.dead, s.targeted = buf[:n:n], buf[n:]
	}
	if lost >= 0 {
		s.dead[lost] = true
	}
	// A negative worker names no worker (the engine refuses such a
	// decision when it comes up): it is neither a survivor nor lost.
	clear(s.targeted)
	for _, d := range s.seq {
		if d.Worker >= 0 {
			s.targeted[d.Worker] = true
		}
	}
	w := s.nextSurvivor(-1)
	for i := s.pos; i < len(s.seq) && w >= 0; i++ {
		if d := s.seq[i].Worker; d >= 0 && s.dead[d] {
			s.seq[i].Worker = w
			w = s.nextSurvivor(w)
		}
	}
}

// nextSurvivor returns the first worker after w, wrapping around, that
// the plan targets and that is not dead; -1 when there is none.
func (s *sequencePlayer) nextSurvivor(w int) int {
	n := len(s.dead)
	for k := 1; k <= n; k++ {
		if i := (w + k) % n; s.targeted[i] && !s.dead[i] {
			return i
		}
	}
	return -1
}

// Next implements Algorithm.
func (s *sequencePlayer) Next(st State) (Decision, bool) {
	for s.pos < len(s.seq) {
		d := s.seq[s.pos]
		if s.pos == len(s.seq)-1 {
			// The plan's own leftover: planned total minus what earlier
			// decisions actually covered.
			d.Size = s.planned - s.dispatched
			// A plan's sizes add up to its load only to rounding (UMR
			// tolerates 1e-12 of it), while the engine stops at an
			// absolute 1e-9: what the last decision would leave behind
			// is dust no later decision will ask for, not a later
			// phase's share, so it goes out with this one.
			if rest := st.Remaining - d.Size; rest > 0 && rest <= s.planned*sequenceDust {
				d.Size = st.Remaining
			}
		}
		if d.Size > st.Remaining {
			d.Size = st.Remaining
		}
		if d.Size <= 0 {
			s.pos++
			continue
		}
		return d, true
	}
	return Decision{}, false
}

// Dispatched implements Algorithm: it records the actually dispatched
// size of the decision just served and moves on.
func (s *sequencePlayer) Dispatched(worker int, requested, actual float64) {
	s.dispatched += actual
	s.pos++
}

// Observe implements Algorithm: a precomputed sequence does not adapt
// (§3.6: "SIMPLE-n and UMR do not perform such adaptation").
func (s *sequencePlayer) Observe(Observation) {}
