package grid

import (
	"math"

	"apstdv/internal/model"
	"apstdv/internal/rng"
)

// batchState realizes a worker's model.BatchQueue: scheduler-cycle
// quantization, dispatch jitter, and an external-job occupancy timeline
// generated lazily (M/M/1-style arrivals holding the node exclusively).
// Queries come with non-decreasing times because the worker CPU queue is
// FIFO.
type batchState struct {
	cfg *model.BatchQueue
	src *rng.Source

	// cycleOffset randomizes where this node's scheduler cycles fall.
	cycleOffset float64

	// External job timeline: generated up to extGenerated; extBusyUntil
	// is when the node frees from the last overlapping external job.
	nextArrival  float64
	extBusyUntil float64
}

// reset re-derives the batch state from its (re-seeded) source, drawing
// exactly as construction does.
func (b *batchState) reset() {
	b.cycleOffset = 0
	b.extBusyUntil = 0
	if b.cfg.CycleInterval > 0 {
		b.cycleOffset = b.src.Uniform(0, float64(b.cfg.CycleInterval))
	}
	if b.cfg.ExternalRate > 0 {
		b.nextArrival = b.src.Exp(1 / b.cfg.ExternalRate)
	} else {
		b.nextArrival = math.Inf(1)
	}
}

// startDelay returns how long a job submitted at time t waits before its
// computation begins, beyond the worker's deterministic CompLatency.
func (b *batchState) startDelay(t float64) float64 {
	start := t

	// External jobs that arrived before our start occupy the node; walk
	// arrivals forward, extending the busy horizon. An arrival during an
	// occupied period queues behind it (FIFO node).
	for b.nextArrival <= start {
		at := b.nextArrival
		hold := b.src.Exp(float64(b.cfg.ExternalMeanHold))
		if b.extBusyUntil < at {
			b.extBusyUntil = at
		}
		b.extBusyUntil += hold
		b.nextArrival = at + b.src.Exp(1/b.cfg.ExternalRate)
	}
	if b.extBusyUntil > start {
		start = b.extBusyUntil
	}

	// Scheduler-cycle quantization: the job starts at the next cycle
	// boundary at or after `start`.
	if ci := float64(b.cfg.CycleInterval); ci > 0 {
		phase := math.Mod(start-b.cycleOffset, ci)
		if phase < 0 {
			phase += ci
		}
		if phase > 1e-12 {
			start += ci - phase
		}
	}

	// Dispatch jitter: a multiplicative perturbation on the wait the
	// scheduler itself introduces (applied to a nominal 1 s dispatch so
	// jitter exists even when cycles and contention are off).
	delay := start - t
	if b.cfg.DispatchJitterCV > 0 {
		delay += math.Abs(b.src.Normal(0, b.cfg.DispatchJitterCV))
	}
	return delay
}
