package dls

import (
	"apstdv/internal/model"
	"apstdv/internal/stats"
)

// twoPhase is what RUMR, Fixed-RUMR and adaptive RUMR share: a UMR phase
// played round by round, then a hand-off to weighted factoring for the
// rest of the load. It keeps the planning estimates, the online γ
// estimate, the workers lost so far and the log of switch evaluations,
// and it serves every Algorithm method but Plan. The variants differ
// only in how they plan the phases and when they switch.
type twoPhase struct {
	// plan holds the estimates both phases are planned with: the probe's
	// (RUMR, Fixed-RUMR) or adaptive RUMR's refined copy of them.
	plan   Plan
	player sequencePlayer
	// roundLen is the length of every planned UMR round, so a round
	// starts wherever the player's position is a multiple of it.
	roundLen  int
	factoring *WeightedFactoring
	switched  bool
	// lost remembers workers removed from service, so that rounds and a
	// factoring phase planned after a loss exclude them too.
	lost  []int
	gamma gammaEstimate
	// decisions logs switch evaluations for the observability layer
	// (SwitchObservable); bounded by the number of UMR round boundaries.
	decisions []SwitchDecision
}

// start resets the core for a run planned with p.
func (c *twoPhase) start(p Plan) {
	*c = twoPhase{plan: p}
	c.gamma.reset(len(p.Workers))
}

// playRounds plans load with UMR over c.plan's estimates and plays the
// rounds, retargeted away from every worker lost so far.
func (c *twoPhase) playRounds(load float64) error {
	seq, roundLen, _, err := PlanUMRRounds(c.plan, load)
	if err != nil {
		return err
	}
	c.player.reset(seq)
	c.roundLen = roundLen
	for _, w := range c.lost {
		c.player.WorkerLost(w, 0)
	}
	return nil
}

// atBoundary reports whether the next decision opens a UMR round: the
// switch is only evaluated there, since a round once started is
// dispatched in full.
func (c *twoPhase) atBoundary() bool {
	return c.player.pos < len(c.player.seq) && c.player.pos%c.roundLen == 0
}

// handOff starts the factoring phase. Unless it was planned up front
// (Fixed-RUMR), it is planned now over load units with c.plan's
// estimates, and every worker lost so far is re-applied.
func (c *twoPhase) handOff(load float64) error {
	if c.factoring == nil {
		wf := NewWeightedFactoring()
		p := c.plan
		p.TotalLoad = load
		if err := wf.Plan(p); err != nil {
			return err
		}
		for _, w := range c.lost {
			wf.WorkerLost(w, 0)
		}
		c.factoring = wf
	}
	c.switched = true
	return nil
}

// trySwitch evaluates RUMR's switch condition at a round boundary and
// logs the evaluation: the factoring phase starts once the undispatched
// load fits the desired share f2(γ̂)·W of the total — the rounds already
// sent are committed. It reports whether the phase started.
func (c *twoPhase) trySwitch(st State) bool {
	g := c.gamma.estimate()
	dec := SwitchDecision{Gamma: g, Remaining: st.Remaining}
	if g >= 0 {
		dec.Want = Phase2Fraction(g) * c.plan.TotalLoad
		dec.Switched = dec.Want > 0 && st.Remaining <= dec.Want && st.Remaining > 0 &&
			c.handOff(st.Remaining) == nil
	}
	c.decisions = append(c.decisions, dec)
	return dec.Switched
}

// Next implements Algorithm: it serves the UMR rounds and, once they run
// out with load left (a planned split, or cut-point drift), hands off to
// the factoring phase.
func (c *twoPhase) Next(st State) (Decision, bool) {
	if !c.switched {
		d, ok := c.player.Next(st)
		if ok || st.Remaining <= 0 || c.handOff(st.Remaining) != nil {
			return d, ok
		}
		c.decisions = append(c.decisions, SwitchDecision{
			Gamma: c.gamma.estimate(), Want: st.Remaining, Remaining: st.Remaining, Switched: true,
		})
	}
	return c.factoring.Next(st)
}

// Dispatched implements Algorithm.
func (c *twoPhase) Dispatched(worker int, requested, actual float64) {
	if c.switched {
		c.factoring.Dispatched(worker, requested, actual)
		return
	}
	c.player.Dispatched(worker, requested, actual)
}

// Observe implements Algorithm.
func (c *twoPhase) Observe(o Observation) { c.observe(o) }

// observe feeds the factoring phase once switched and the γ estimate
// always, and reports whether the γ estimate took the observation.
func (c *twoPhase) observe(o Observation) bool {
	if c.switched {
		c.factoring.Observe(o)
	}
	return c.gamma.observe(o, c.plan.Workers)
}

// WorkerLost implements WorkerLossAware: the active phase stops
// targeting the worker, and rounds or a factoring phase planned later
// exclude it too.
func (c *twoPhase) WorkerLost(worker int, returnedLoad float64) {
	c.lost = append(c.lost, worker)
	if c.factoring != nil {
		c.factoring.WorkerLost(worker, returnedLoad)
	}
	if !c.switched {
		c.player.WorkerLost(worker, returnedLoad)
	}
}

// DrainSwitchDecisions implements SwitchObservable.
func (c *twoPhase) DrainSwitchDecisions() []SwitchDecision {
	if len(c.decisions) == 0 {
		return nil
	}
	out := c.decisions
	c.decisions = c.decisions[:0]
	return out
}

// Switched reports whether the factoring phase has started.
func (c *twoPhase) Switched() bool { return c.switched }

// minGammaObservations is how many real (non-probe) chunk completions
// the online γ estimate needs before it is trusted.
const minGammaObservations = 5

// gammaEstimate discovers γ online, as APST-DV must (§4.2): the
// dispersion of observed per-unit compute times, each normalized by its
// worker's running mean so that heterogeneity and probe misestimation
// do not masquerade as uncertainty.
type gammaEstimate struct {
	perWorker []stats.RunningStats // per-unit compute times, by worker
	ratios    stats.RunningStats
}

func (g *gammaEstimate) reset(workers int) {
	g.perWorker = make([]stats.RunningStats, workers)
	g.ratios = stats.RunningStats{}
}

// observe folds in one completed chunk, its per-unit time measured net
// of the worker's start-up latency in ests, and reports whether it
// counted: probe chunks and non-positive per-unit times do not.
func (g *gammaEstimate) observe(o Observation, ests []model.Estimate) bool {
	if o.Probe || o.Size <= 0 || o.Worker >= len(g.perWorker) {
		return false
	}
	perUnit := (o.ComputeTime() - ests[o.Worker].CompLatency) / o.Size
	if perUnit <= 0 {
		return false
	}
	pw := &g.perWorker[o.Worker]
	if pw.N() > 0 {
		g.ratios.Add(perUnit / pw.Mean())
	}
	pw.Add(perUnit)
	return true
}

// estimate returns γ̂, or -1 while too few observations have accumulated.
func (g *gammaEstimate) estimate() float64 {
	if g.ratios.N() < minGammaObservations {
		return -1
	}
	return g.ratios.CV()
}
