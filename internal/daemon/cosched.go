// cosched.go is the daemon's cross-job optimizer: the policy layer that
// decides how concurrently running live jobs split the worker pool.
// Mechanism lives elsewhere — live.SharePool enforces the per-worker
// sum ≤ 1 invariant, grid's SharePolicy functions compute the vectors,
// and the engine consumes share-scaled deadline estimates — this file
// wires them into the scheduler's start/finish/cancel transitions.
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
// A revision happens under d.mu at every job start and finish, so the
// pool transitions atomically (SetAll) and every running job's ring
// gets a JobReshared event carrying its new effective worker count.
package daemon

import (
	"fmt"
	"sort"
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

// allocSharesLocked grants a starting job its workers. Partition
// grants whole workers: the lowest-index free ones, free/slots of them
// per job and at least one, so lease sets are deterministic for a given
// admission order; fair and srpt grant the whole pool and revise
// everyone's fractions. Caller holds d.mu; the job is already counted
// in d.running.
func (d *Daemon) allocSharesLocked(p *pendingJob) {
	if d.shares == nil {
		return
	}
	job := p.job
	if d.coschedFn == nil {
		// Each admitted job gets free/slotsRemaining workers (integer,
		// at least 1): with cap C ≤ pool size, the pool always has at
		// least one free worker per unfilled slot, so every job that a
		// slot admits can lease, and grants are disjoint.
		slots := d.effCap - (d.running - 1)
		count := d.shares.FreeWorkers() / slots
		if count < 1 {
			count = 1
		}
		job.Leased = d.partitionAcquireLocked(job.ID, count)
		job.Shares = sharesFor(d.shares.Shares(job.ID), job.Leased)
	} else {
		all := make([]int, d.shares.Size())
		for i := range all {
			all[i] = i
		}
		job.Leased = all
		d.reshareLocked(p)
	}
	d.updateShareGaugesLocked()
}

// partitionAcquireLocked takes full shares of up to n entirely free
// workers, lowest indexes first, or fewer when fewer are free. Returns
// nil when no worker is free.
func (d *Daemon) partitionAcquireLocked(jobID, n int) []int {
	occ := d.shares.Occupancy()
	vec := make([]float64, len(occ))
	var got []int
	for w := 0; w < len(occ) && len(got) < n; w++ {
		if occ[w] <= 1e-9 {
			vec[w] = 1
			got = append(got, w)
		}
	}
	if len(got) == 0 {
		return nil
	}
	if err := d.shares.Set(jobID, vec); err != nil {
		d.shareErrors.Inc()
		return nil
	}
	return got
}

// releaseSharesLocked returns a terminal job's shares to the pool and
// hands the freed capacity to the survivors. A double release is a
// daemon bug, but it surfaces as a counted typed error — never a panic
// mid-drain. Caller holds d.mu and has removed the job from d.pending.
func (d *Daemon) releaseSharesLocked(p *pendingJob) {
	job := p.job
	if d.shares == nil || len(job.Leased) == 0 {
		return
	}
	if err := d.shares.Release(job.ID); err != nil {
		d.shareErrors.Inc()
	}
	job.Leased = nil
	job.Shares = nil
	d.reshareLocked(p)
	d.updateShareGaugesLocked()
}

// reshareLocked recomputes every running job's share vector through the
// policy and installs them as one atomic pool transition. Each running
// job's ring gets a JobReshared event; the triggering job's trace gets
// a cosched.reshare span. Caller holds d.mu.
func (d *Daemon) reshareLocked(trigger *pendingJob) {
	if d.shares == nil || d.coschedFn == nil {
		return
	}
	var t0 int64
	if d.tracer != nil {
		t0 = d.tracer.Clock()
	}
	// Deterministic revision order: running jobs ascending by ID.
	ids := make([]int, 0, len(d.pending))
	for id, p := range d.pending {
		if p.job.State == JobRunning {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		return
	}
	n := d.shares.Size()
	act := make([]grid.MultiJobStatus, 0, len(ids))
	for _, id := range ids {
		p := d.pending[id]
		// Remaining is the job's declared total load: the daemon cannot
		// observe a live job's true progress cheaply, so srpt weighting
		// degrades to shortest-job-first. The simulated multi-job world
		// tracks true remaining (see grid.MultiWorld).
		act = append(act, grid.MultiJobStatus{
			Job: id, Remaining: p.divider.TotalLoad(), Workers: p.job.Leased,
		})
	}
	// The policy writes into rows parallel to act; SetAll copies the
	// vectors it installs, so the rows are ours to build fresh here —
	// revisions are rare daemon-side (job start/finish), a cold path.
	rows := make([][]float64, len(act))
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	d.coschedFn(act, n, rows)
	vecs := make(map[int][]float64, len(ids))
	for i, id := range ids {
		vecs[id] = rows[i]
	}
	if err := d.shares.SetAll(vecs); err != nil {
		d.shareErrors.Inc()
		return
	}
	d.coschedReshares.Inc()
	for _, id := range ids {
		p := d.pending[id]
		vec := vecs[id]
		p.job.Shares = sharesFor(vec, p.job.Leased)
		eff := 0.0
		for _, s := range vec {
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

// updateShareGaugesLocked publishes the pool state: the legacy
// workers-leased gauge (workers with any allocation) and the per-worker
// occupancy gauges. Caller holds d.mu.
func (d *Daemon) updateShareGaugesLocked() {
	if d.shares == nil {
		return
	}
	d.workersLeased.Set(float64(d.shares.Size() - d.shares.FreeWorkers()))
	occ := d.shares.Occupancy()
	for w, g := range d.workerShareG {
		g.Set(occ[w])
	}
}
