package live

import (
	"fmt"
	"sync"

	"apstdv/internal/errcode"
)

// Share allocation errors. They are errcode sentinels so a daemon that
// surfaces them over the wire keeps errors.Is working on the client
// side (see package errcode).
var (
	// ErrShareOversubscribed rejects a share revision that would push
	// some worker's total allocated fraction above 1.0.
	ErrShareOversubscribed = errcode.New("share_oversubscribed", "live: worker share oversubscribed")
	// ErrShareNotHeld reports a release or revision for a job that holds
	// no shares — the share-accounting analogue of a double release.
	ErrShareNotHeld = errcode.New("share_not_held", "live: job holds no worker shares")
)

// shareEpsilon absorbs float accumulation error in the per-worker
// sum ≤ 1.0 invariant check (e.g. three jobs at 1/3 each).
const shareEpsilon = 1e-9

// SharePool tracks fractional worker allocations across concurrently
// running jobs: each job holds a share vector — one CPU fraction per
// worker of a fixed pool — and the pool enforces the invariant that no
// worker's shares ever sum above 1.0. An exclusive whole-worker lease
// is the special case of a full (1.0) share: disjoint full-share
// vectors are strict partitioning, where two running jobs never share
// a worker.
//
// The pool is mechanism only. Policy — who gets how much, and when
// shares are revised — lives in the daemon's co-scheduling layer;
// revision is Set with a new vector, which the pool validates
// atomically against everyone else's holdings.
type SharePool struct {
	mu    sync.Mutex
	held  map[int][]float64 // job ID -> per-worker share vector
	total []float64         // per-worker allocated sum across jobs
}

// NewSharePool returns a pool over n workers with nothing allocated.
func NewSharePool(n int) *SharePool {
	return &SharePool{held: make(map[int][]float64), total: make([]float64, n)}
}

// Size returns the worker count.
func (p *SharePool) Size() int { return len(p.total) }

// Set installs (or revises) a job's share vector atomically. shares
// must have one entry per pool worker, each in [0, 1]; an all-zero
// vector is valid and holds nothing. The revision is rejected with
// ErrShareOversubscribed — and the job's previous holdings left intact
// — if any worker's total across jobs would exceed 1.0.
func (p *SharePool) Set(jobID int, shares []float64) error {
	if len(shares) != len(p.total) {
		return fmt.Errorf("live: share vector has %d entries for %d workers", len(shares), len(p.total))
	}
	for w, s := range shares {
		if s < 0 || s > 1 {
			return fmt.Errorf("live: share %g for worker %d outside [0, 1]", s, w)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.held[jobID]
	for w, s := range shares {
		next := p.total[w] + s
		if old != nil {
			next -= old[w]
		}
		if next > 1+shareEpsilon {
			return fmt.Errorf("live: worker %d would be allocated %.4f: %w", w, next, ErrShareOversubscribed)
		}
	}
	for w, s := range shares {
		p.total[w] += s
		if old != nil {
			p.total[w] -= old[w]
		}
		if p.total[w] < 0 {
			p.total[w] = 0 // clamp float residue
		}
	}
	p.held[jobID] = append([]float64(nil), shares...)
	return nil
}

// SetAll installs (or revises) several jobs' share vectors as one
// atomic transition: the invariant is checked against the combined end
// state, so revisions that move share mass between jobs — impossible
// with one-at-a-time Set without a transient violation — commit in one
// step. On error nothing changes.
func (p *SharePool) SetAll(vectors map[int][]float64) error {
	for id, shares := range vectors {
		if len(shares) != len(p.total) {
			return fmt.Errorf("live: job %d share vector has %d entries for %d workers", id, len(shares), len(p.total))
		}
		for w, s := range shares {
			if s < 0 || s > 1 {
				return fmt.Errorf("live: job %d share %g for worker %d outside [0, 1]", id, s, w)
			}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	next := append([]float64(nil), p.total...)
	for id, shares := range vectors {
		old := p.held[id]
		for w, s := range shares {
			next[w] += s
			if old != nil {
				next[w] -= old[w]
			}
		}
	}
	for w, tot := range next {
		if tot > 1+shareEpsilon {
			return fmt.Errorf("live: worker %d would be allocated %.4f: %w", w, tot, ErrShareOversubscribed)
		}
		if tot < 0 {
			next[w] = 0
		}
	}
	p.total = next
	for id, shares := range vectors {
		p.held[id] = append([]float64(nil), shares...)
	}
	return nil
}

// Release returns all of a job's shares to the pool. Releasing a job
// that holds nothing — a double release, or a job that never acquired —
// returns ErrShareNotHeld rather than panicking: share accounting is a
// correctness invariant, but a violation must not crash a daemon
// mid-drain, so the caller decides whether it is fatal.
func (p *SharePool) Release(jobID int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	shares, ok := p.held[jobID]
	if !ok {
		return fmt.Errorf("live: release of job %d: %w", jobID, ErrShareNotHeld)
	}
	for w, s := range shares {
		p.total[w] -= s
		if p.total[w] < 0 {
			p.total[w] = 0
		}
	}
	delete(p.held, jobID)
	return nil
}

// Shares returns a copy of a job's share vector, or nil when the job
// holds nothing.
func (p *SharePool) Shares(jobID int) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.held[jobID]
	if !ok {
		return nil
	}
	return append([]float64(nil), s...)
}

// Occupancy returns a copy of the per-worker allocated fractions
// (sum of all jobs' shares on each worker).
func (p *SharePool) Occupancy() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.total...)
}

// FreeWorkers returns how many workers are entirely unallocated; the
// strict-partition policy sizes new grants from it.
func (p *SharePool) FreeWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, t := range p.total {
		if t <= shareEpsilon {
			n++
		}
	}
	return n
}

// Holders returns how many jobs currently hold shares.
func (p *SharePool) Holders() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.held)
}
