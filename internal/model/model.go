// Package model defines the platform and application vocabulary shared by
// the scheduler, the simulator, the live runtime and the experiment
// harness.
//
// The cost model is the one divisible load scheduling theory targets and
// the paper's testbed exhibits:
//
//   - Affine communication cost: sending a chunk of b bytes to worker i
//     takes CommLatency_i + b/Bandwidth_i seconds (the paper measured
//     start-up costs of ~6.4 s to DAS-2 and ~0.7 s to Meteor).
//   - Affine computation cost: computing a chunk of k load units on worker
//     i takes CompLatency_i + k·UnitCost/Speed_i seconds, perturbed by the
//     application's uncertainty (γ).
//   - Serialized master uplink: the master sends to one worker at a time
//     (§4.2: "communications to workers are serialized"), which is why
//     communication matters even when r ≫ 1.
package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"apstdv/internal/units"
)

// Worker describes one compute resource (a cluster node or workstation
// CPU) reachable from the master.
type Worker struct {
	// ID is the dense index of the worker within its platform.
	ID int
	// Name is a human-readable label ("das2-03", "grail-fast-1").
	Name string
	// Cluster groups workers that share network characteristics.
	Cluster string
	// Speed is the relative compute speed: a worker with Speed 2 computes
	// a unit of load twice as fast as a Speed 1 worker.
	Speed float64
	// CompLatency is the fixed start-up cost of launching one chunk
	// computation (batch scheduler hold, process launch).
	CompLatency units.Seconds
	// Bandwidth is the data rate of the master→worker link in bytes/s.
	Bandwidth units.Rate
	// CommLatency is the fixed start-up cost of one transfer to this
	// worker (connection establishment, scp/ssh handshake).
	CommLatency units.Seconds
	// Background, when non-nil, models a non-dedicated host whose CPU is
	// intermittently shared with other users (the §5 case study).
	Background *BackgroundLoad
	// Batch, when non-nil, models access through a batch scheduler
	// (scheduler cycles, dispatch jitter, competing jobs).
	Batch *BatchQueue
}

// BackgroundLoad is a two-state (on/off) Markov-modulated CPU thief: when
// "on", external processes consume Share of the CPU, stretching compute
// times by 1/(1-Share). Mean sojourn times are exponential.
type BackgroundLoad struct {
	MeanOn  units.Seconds // mean duration of a loaded period
	MeanOff units.Seconds // mean duration of an idle period
	Share   float64       // CPU fraction stolen while loaded, in [0,1)
}

// Validate checks the background-load parameters.
func (b *BackgroundLoad) Validate() error {
	if b.MeanOn <= 0 || b.MeanOff <= 0 {
		return fmt.Errorf("background load: mean sojourn times must be positive (on=%v off=%v)", b.MeanOn, b.MeanOff)
	}
	if b.Share < 0 || b.Share >= 1 {
		return fmt.Errorf("background load: share %.3f outside [0,1)", b.Share)
	}
	return nil
}

// Platform is a set of workers reachable from one master. The master's
// outgoing link is serialized: at any instant at most one chunk transfer
// is in progress across the whole platform.
type Platform struct {
	Name    string
	Workers []Worker
	// Topology, when non-nil, replaces the per-worker star links with a
	// first-class link graph (see topology.go): transfers contend for
	// shared links instead of serializing on one master uplink. Nil
	// keeps the legacy single-uplink model, byte-identical to the
	// pinned goldens.
	Topology *Topology
}

// Validate checks platform consistency: dense worker IDs, positive speeds
// and bandwidths, non-negative latencies.
func (p *Platform) Validate() error {
	if len(p.Workers) == 0 {
		return fmt.Errorf("platform %q: no workers", p.Name)
	}
	for i, w := range p.Workers {
		if w.ID != i {
			return fmt.Errorf("platform %q: worker %d has ID %d (IDs must be dense)", p.Name, i, w.ID)
		}
		if w.Speed <= 0 {
			return fmt.Errorf("platform %q: worker %q has non-positive speed %g", p.Name, w.Name, w.Speed)
		}
		if w.Bandwidth <= 0 {
			return fmt.Errorf("platform %q: worker %q has non-positive bandwidth %g", p.Name, w.Name, float64(w.Bandwidth))
		}
		if w.CommLatency < 0 || w.CompLatency < 0 {
			return fmt.Errorf("platform %q: worker %q has negative latency", p.Name, w.Name)
		}
		if w.Background != nil {
			if err := w.Background.Validate(); err != nil {
				return fmt.Errorf("platform %q: worker %q: %w", p.Name, w.Name, err)
			}
		}
		if w.Batch != nil {
			if err := w.Batch.Validate(); err != nil {
				return fmt.Errorf("platform %q: worker %q: %w", p.Name, w.Name, err)
			}
		}
	}
	if p.Topology != nil {
		if err := p.Topology.Validate(len(p.Workers)); err != nil {
			return fmt.Errorf("platform %q: %w", p.Name, err)
		}
	}
	return nil
}

// Clusters returns the distinct cluster names in first-appearance order.
func (p *Platform) Clusters() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range p.Workers {
		if !seen[w.Cluster] {
			seen[w.Cluster] = true
			out = append(out, w.Cluster)
		}
	}
	return out
}

// UncertaintyMode selects how per-unit compute cost randomness aggregates
// within a chunk (see DESIGN.md "Uncertainty model").
type UncertaintyMode int

const (
	// PerChunk draws one Normal(1, γ) multiplier per chunk — unit costs
	// fully correlated within a chunk. This matches the paper's observed
	// behaviour (chunk-time prediction error of order γ regardless of
	// chunk size) and is the default.
	PerChunk UncertaintyMode = iota
	// PerUnit treats unit costs as independent: a chunk of k units gets a
	// multiplier with CV γ/√k. Kept as an ablation.
	PerUnit
)

// String implements fmt.Stringer.
func (m UncertaintyMode) String() string {
	switch m {
	case PerChunk:
		return "per-chunk"
	case PerUnit:
		return "per-unit"
	default:
		return fmt.Sprintf("UncertaintyMode(%d)", int(m))
	}
}

// Application describes a divisible load application: the total load, its
// data density, its compute density, and its intrinsic uncertainty.
type Application struct {
	Name string
	// TotalLoad is W, the amount of load in application-defined units.
	TotalLoad units.Load
	// BytesPerUnit converts load units to input bytes for transfers.
	BytesPerUnit units.Bytes
	// OutputBytesPerUnit is the result data returned per unit (0 = the
	// experiments' negligible-output regime; the engine still models the
	// return transfer when non-zero, on a link parallel to the uplink).
	OutputBytesPerUnit units.Bytes
	// UnitCost is the compute time of one load unit on a Speed=1 worker.
	UnitCost units.Seconds
	// Gamma is the coefficient of variation of the per-unit compute cost
	// (the paper's γ; 0.10 means "γ = 10%").
	Gamma float64
	// Uncertainty selects the aggregation model for Gamma.
	Uncertainty UncertaintyMode
	// MinChunk is the smallest load amount the application can be cut
	// into (division granularity); schedulers never request less.
	MinChunk units.Load
}

// Validate checks application consistency.
func (a *Application) Validate() error {
	if a.TotalLoad <= 0 {
		return fmt.Errorf("application %q: non-positive total load %g", a.Name, float64(a.TotalLoad))
	}
	if a.BytesPerUnit < 0 || a.OutputBytesPerUnit < 0 {
		return fmt.Errorf("application %q: negative data density", a.Name)
	}
	if a.UnitCost <= 0 {
		return fmt.Errorf("application %q: non-positive unit cost %v", a.Name, a.UnitCost)
	}
	if a.Gamma < 0 {
		return fmt.Errorf("application %q: negative gamma %g", a.Name, a.Gamma)
	}
	if a.MinChunk < 0 {
		return fmt.Errorf("application %q: negative min chunk", a.Name)
	}
	if units.Load(a.MinChunk) > a.TotalLoad {
		return fmt.Errorf("application %q: min chunk %g exceeds total load %g", a.Name, float64(a.MinChunk), float64(a.TotalLoad))
	}
	return nil
}

// InputBytes returns the total input data size.
func (a *Application) InputBytes() units.Bytes {
	return units.Bytes(float64(a.TotalLoad) * float64(a.BytesPerUnit))
}

// SequentialTime returns the compute time of the whole load on a single
// Speed=1 worker (no latencies) — the "running time" column of Table 1.
func (a *Application) SequentialTime() units.Seconds {
	return units.Seconds(float64(a.TotalLoad) * float64(a.UnitCost))
}

// PlatformRatio returns r measured against a concrete platform: sequential
// compute time on a mean-speed worker divided by the serialized transfer
// time of the whole input at the platform's mean bandwidth. This is the
// quantity the paper reports per experiment (r=37 for DAS-2, r=46 for
// Meteor, r=13.5 for GRAIL).
func PlatformRatio(a *Application, p *Platform) float64 {
	if len(p.Workers) == 0 {
		return 0
	}
	var speed, bw float64
	for _, w := range p.Workers {
		speed += w.Speed
		bw += float64(w.Bandwidth)
	}
	speed /= float64(len(p.Workers))
	bw /= float64(len(p.Workers))
	comp := float64(a.SequentialTime()) / speed
	comm := float64(a.InputBytes()) / bw
	if comm == 0 {
		return 0
	}
	return comp / comm
}

// Estimate holds the per-worker quantities a DLS algorithm plans with,
// as obtained from probing (or, for oracle runs, from the true model).
// All four follow the affine cost model: sending k units to worker i costs
// CommLatency + k·UnitComm; computing them costs CompLatency + k·UnitComp.
type Estimate struct {
	Worker      int
	UnitComm    float64 // seconds per load unit of transfer (ĉ_i)
	CommLatency float64 // seconds per transfer (n̂Lat_i)
	UnitComp    float64 // seconds per load unit of compute (p̂_i)
	CompLatency float64 // seconds per computation launch (ĉLat_i)
}

// Validate checks that the estimate is usable for planning. A probed
// estimate can be NaN or +Inf (a zero-length probe, an overflowed
// ratio), and NaN compares false with everything, so the finiteness
// check comes first.
func (e Estimate) Validate() error {
	for _, v := range [...]float64{e.UnitComm, e.CommLatency, e.UnitComp, e.CompLatency} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("estimate for worker %d: non-finite cost %g", e.Worker, v)
		}
	}
	if e.UnitComp <= 0 {
		return fmt.Errorf("estimate for worker %d: non-positive unit compute time %g", e.Worker, e.UnitComp)
	}
	if e.UnitComm < 0 || e.CommLatency < 0 || e.CompLatency < 0 {
		return fmt.Errorf("estimate for worker %d: negative cost", e.Worker)
	}
	return nil
}

// TrueEstimates derives noise-free estimates from the model — what a
// perfect information service would report — into dst's storage when it
// has room, and returns them. Used by oracle ablations, for the stage
// deadlines of blind algorithms, and as the ground truth probing is
// validated against in tests.
func TrueEstimates(dst []Estimate, a *Application, p *Platform) []Estimate {
	if cap(dst) < len(p.Workers) {
		dst = make([]Estimate, 0, len(p.Workers))
	}
	dst = dst[:0]
	for i, w := range p.Workers {
		dst = append(dst, Estimate{
			Worker:      i,
			UnitComm:    float64(a.BytesPerUnit) / float64(w.Bandwidth),
			CommLatency: float64(w.CommLatency),
			UnitComp:    float64(a.UnitCost) / w.Speed,
			CompLatency: float64(w.CompLatency),
		})
	}
	return dst
}

// BySpeed returns worker indices sorted fastest-first according to the
// estimates (smallest UnitComp first), the order one-round DLS theory
// prescribes for dispatching. The sort is stable: equally fast workers
// keep index order.
func BySpeed(ests []Estimate) []int {
	idx := make([]int, len(ests))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(ests[a].UnitComp, ests[b].UnitComp) })
	return idx
}
