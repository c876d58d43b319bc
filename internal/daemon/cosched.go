// cosched.go is the daemon's cross-job optimizer: the policy layer that
// decides how concurrently running live jobs split the worker pool.
// A running job's Job.Leased and the aligned Job.Shares are the only
// record of its allocation, and a worker's occupancy is the sum over
// d.running; grid's SharePolicy functions compute the vectors, and the
// engine consumes share-scaled deadline estimates. This file wires them
// into the scheduler's start/finish/cancel transitions and enforces the
// per-worker sum ≤ 1 invariant on every revision.
//
// Policies (Config.CoschedPolicy, cmd/apstdvd -cosched):
//
//   - partition (default): the historical behaviour, preserved exactly.
//     Each admitted job gets free/slots whole workers (disjoint
//     full-share grants); a finished job's workers sit idle until the
//     next admission.
//   - fair: every running job runs on the whole pool, splitting each
//     worker evenly. Work-conserving: a departing job's capacity
//     redistributes to the survivors at the next revision.
//   - srpt: like fair, but the split is weighted by inverse remaining
//     load with a floor (grid.SRPTPolicy). The daemon does not observe
//     true remaining load for a live job, so it weights by the job's
//     total load — shortest-job-first as a proxy for SRPT; the sim
//     world (grid.MultiWorld) tracks true remaining.
//
// A revision happens under d.mu at every job start and finish and
// installs every running job's vector at once — revising jobs one at a
// time through crossing allocations (A shrinks on w0 while B grows)
// would transiently oversubscribe — and every running job's ring gets a
// JobReshared event carrying its new effective worker count.
package daemon

import (
	"fmt"
	"time"

	"apstdv/internal/grid"
	"apstdv/internal/obs"
)

// Co-scheduling policy names (Config.CoschedPolicy).
const (
	CoschedPartition = "partition"
	CoschedFair      = "fair"
	CoschedSRPT      = "srpt"
)

// normalizeCosched maps the configured policy name to a canonical one
// ("" defaults to partition) or rejects unknown policies.
func normalizeCosched(p string) (string, error) {
	switch p {
	case "", CoschedPartition:
		return CoschedPartition, nil
	case CoschedFair, CoschedSRPT:
		return p, nil
	}
	return "", fmt.Errorf("daemon: unknown cosched policy %q (want partition, fair or srpt)", p)
}

// coschedPolicy resolves a normalized policy name to its share-vector
// function; partition has none (disjoint full-share grants need no
// revision).
func coschedPolicy(name string) grid.SharePolicy {
	switch name {
	case CoschedFair:
		return grid.FairPolicy()
	case CoschedSRPT:
		return grid.SRPTPolicy()
	}
	return nil
}

// shareEpsilon absorbs float accumulation error in the per-worker
// sum ≤ 1 check (e.g. three jobs at 1/3 each).
const shareEpsilon = 1e-9

// allocSharesLocked grants a starting live job its workers. Partition
// grants whole workers: the lowest-index unoccupied ones, free/slots of
// them per job and at least one, so lease sets are deterministic for a
// given admission order; fair and srpt grant the whole pool and revise
// everyone's fractions. Caller holds d.mu; the job is already in
// d.running.
func (d *Daemon) allocSharesLocked(p *pendingJob) {
	if d.cfg.Mode != ModeLive {
		return
	}
	job := p.job
	if d.coschedFn == nil {
		// Each admitted job gets free/slotsRemaining workers (integer,
		// at least 1): with cap C ≤ pool size, the pool always has at
		// least one free worker per unfilled slot, so every job that a
		// slot admits can lease, and grants are disjoint. Partition
		// shares are whole, so a free worker's occupancy is exactly 0.
		occ := d.occupancyLocked()
		free := 0
		for _, o := range occ {
			if o == 0 {
				free++
			}
		}
		want := max(free/(d.effCap-len(d.running)+1), 1)
		for w, o := range occ {
			if o == 0 && len(job.Leased) < want {
				job.Leased = append(job.Leased, w)
				job.Shares = append(job.Shares, 1)
			}
		}
	} else {
		job.Leased = make([]int, len(d.cfg.LiveWorkers))
		for i := range job.Leased {
			job.Leased[i] = i
		}
		d.reshareLocked(p)
	}
	d.updateShareGaugesLocked()
}

// releaseSharesLocked clears a terminal job's allocation and hands the
// freed capacity to the survivors. Caller holds d.mu and has removed
// the job from d.running.
func (d *Daemon) releaseSharesLocked(p *pendingJob) {
	job := p.job
	if len(job.Leased) == 0 {
		return
	}
	job.Leased = nil
	job.Shares = nil
	d.reshareLocked(p)
	d.updateShareGaugesLocked()
}

// reshareLocked recomputes every running job's share vector through the
// policy and installs them all in one step, or none: a revision that
// would push some worker's column sum above 1 is refused and counted,
// and the previous vectors stay. Each running job's ring gets a
// JobReshared event; the triggering job's trace gets a cosched.reshare
// span. Caller holds d.mu.
func (d *Daemon) reshareLocked(trigger *pendingJob) {
	if d.coschedFn == nil || len(d.running) == 0 {
		return
	}
	var t0 int64
	if d.tracer != nil {
		t0 = d.tracer.Clock()
	}
	// d.running is in ascending job ID order, so revisions are
	// deterministic. The policy writes into rows parallel to act, built
	// fresh here: revisions are rare daemon-side (job start/finish), a
	// cold path.
	n := len(d.cfg.LiveWorkers)
	act := make([]grid.MultiJobStatus, len(d.running))
	rows := make([][]float64, len(d.running))
	for i, p := range d.running {
		// Remaining is the job's declared total load: the daemon cannot
		// observe a live job's true progress cheaply, so srpt weighting
		// degrades to shortest-job-first. The simulated multi-job world
		// tracks true remaining (see grid.MultiWorld).
		act[i] = grid.MultiJobStatus{
			Job: p.job.ID, Remaining: p.divider.TotalLoad(), Workers: p.job.Leased,
		}
		rows[i] = make([]float64, n)
	}
	d.coschedFn(act, n, rows)
	occ := make([]float64, n)
	for _, row := range rows {
		for w, s := range row {
			occ[w] += s
		}
	}
	for _, o := range occ {
		if o > 1+shareEpsilon {
			d.shareErrors.Inc()
			return
		}
	}
	d.coschedReshares.Inc()
	for i, p := range d.running {
		p.job.Shares = sharesFor(rows[i], p.job.Leased)
		eff := 0.0
		for _, s := range rows[i] {
			eff += s
		}
		p.ring.Append(&obs.Event{
			Type: obs.JobReshared, T: time.Since(p.job.Submitted).Seconds(),
			Class: p.job.Priority, Workers: len(p.job.Leased), Size: eff,
		})
	}
	if trigger != nil {
		d.tracer.RecordSince(trigger.traceID, trigger.submitSpan, "cosched.reshare", t0, nil)
	}
}

// sharesFor projects a pool-wide share vector onto a job's leased
// workers: result[i] is the fraction held on Leased[i].
func sharesFor(vec []float64, leased []int) []float64 {
	if vec == nil || len(leased) == 0 {
		return nil
	}
	out := make([]float64, len(leased))
	for i, w := range leased {
		out[i] = vec[w]
	}
	return out
}

// occupancyLocked returns each live worker's allocated fraction: the
// sum of the running jobs' shares on it, in ascending job ID order.
// Job.Leased and the aligned Job.Shares are the only record of an
// allocation, so this is where a worker's total comes from. Caller
// holds d.mu.
func (d *Daemon) occupancyLocked() []float64 {
	occ := make([]float64, len(d.cfg.LiveWorkers))
	for _, p := range d.running {
		for i, s := range p.job.Shares {
			occ[p.job.Leased[i]] += s
		}
	}
	return occ
}

// updateShareGaugesLocked publishes the allocation: the legacy
// workers-leased gauge (workers with any allocation) and the per-worker
// occupancy gauges. Caller holds d.mu.
func (d *Daemon) updateShareGaugesLocked() {
	leased := 0
	for w, o := range d.occupancyLocked() {
		if o > shareEpsilon {
			leased++
		}
		d.workerShareG[w].Set(o)
	}
	d.workersLeased.Set(float64(leased))
}
