package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration takes a lock; metric updates are
// lock-free atomics, so instrumented hot paths pay one atomic op per
// update and allocate nothing.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is anything the registry can expose.
type metric interface {
	name() string
	expose(w io.Writer) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name()]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name()))
	}
	r.metrics[m.name()] = m
}

// Counter registers and returns a monotonically increasing metric.
// Registering a name twice panics — metric names are a global contract.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{nm: name, help: help}
	r.register(c)
	return c
}

// Gauge registers and returns a set-to-current-value metric.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{nm: name, help: help}
	r.register(g)
	return g
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	h := &Histogram{
		nm:     name,
		help:   help,
		bounds: append([]float64(nil), buckets...),
		counts: make([]int64, len(buckets)+1),
	}
	r.register(h)
	return h
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format, sorted by name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	ms := make([]metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.Unlock()
	for _, m := range ms {
		if err := m.expose(w); err != nil {
			return err
		}
	}
	return nil
}

// fnum renders a float the way Prometheus clients do.
func fnum(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing float64, safe for concurrent
// use. The zero value is usable but unregistered; get one from a
// Registry.
type Counter struct {
	bits uint64 // float64 bits, updated by CAS
	nm   string
	help string
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (v < 0 is ignored — counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := atomic.LoadUint64(&c.bits)
		cur := math.Float64frombits(old)
		if atomic.CompareAndSwapUint64(&c.bits, old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&c.bits))
}

func (c *Counter) name() string { return c.nm }

func (c *Counter) expose(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n",
		c.nm, c.help, c.nm, c.nm, fnum(c.Value()))
	return err
}

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits uint64
	nm   string
	help string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add adds v (negative to subtract).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		cur := math.Float64frombits(old)
		if atomic.CompareAndSwapUint64(&g.bits, old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

func (g *Gauge) name() string { return g.nm }

func (g *Gauge) expose(w io.Writer) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		g.nm, g.help, g.nm, g.nm, fnum(g.Value()))
	return err
}

// Histogram counts observations into a fixed bucket layout. Observe is
// one branchless scan plus two atomic ops — no allocation, no lock.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit
	counts  []int64   // len(bounds)+1, cumulative at expose time only
	sumBits uint64
	nm      string
	help    string
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddInt64(&h.counts[i], 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		cur := math.Float64frombits(old)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits))
}

func (h *Histogram) name() string { return h.nm }

func (h *Histogram) expose(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.nm, h.help, h.nm); err != nil {
		return err
	}
	var cum int64
	for i, b := range h.bounds {
		cum += atomic.LoadInt64(&h.counts[i])
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.nm, fnum(b), cum); err != nil {
			return err
		}
	}
	cum += atomic.LoadInt64(&h.counts[len(h.bounds)])
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		h.nm, cum, h.nm, fnum(h.Sum()), h.nm, cum)
	return err
}

// DurationBuckets is the shared bucket layout for second-valued
// histograms: spans the sub-second live-backend latencies through the
// multi-hour simulated makespans.
var DurationBuckets = []float64{0.01, 0.1, 1, 5, 15, 60, 300, 1800, 7200}

// DepthBuckets is the shared layout for queue-depth histograms.
var DepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32}
