package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"

	"apstdv/internal/stats"
)

// tailQuantile returns the highest quantile not above target that still
// has at least ten samples beyond it in a sample of n, floored at the
// median: p99 needs n >= 1000, a pass of 420 runs supports p97.6.
func tailQuantile(n int, target float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > target {
		q = target
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantileSorted is the nearest-rank quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minMedMax is the noise floor every end-to-end metric carries: the
// lowest, median and highest value over the passes or blocks behind it.
type minMedMax struct {
	Min, Median, Max float64
	N                int
}

func summarize(xs []float64) minMedMax {
	if len(xs) == 0 {
		return minMedMax{}
	}
	s := sortedCopy(xs)
	return minMedMax{Min: s[0], Median: stats.Median(s), Max: s[len(s)-1], N: len(s)}
}

// spreadPct is (max-min)/median in percent.
func (m minMedMax) spreadPct() float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Max - m.Min) / m.Median * 100
}

// The calibration is two fixed loops, because this box is slowed down in
// two ways that do not move together.
//
//   - Contention for the shared cache and memory: a dependent-load chase
//     through 4 MB (about 20 ms) slows down with it. A register-only loop
//     does not see it at all.
//   - The speed of the core itself (the sibling hyperthread busy, the
//     clock lower): a loop of eight independent integer chains (about 5
//     ms) slows down with it, and the chase, which waits on memory, does
//     not.
//
// Over twelve runs of sim_fault_tree the median pass time ranged over 25%
// of its median raw, 14% divided by the chase reading alone, 17% by the
// chain reading alone, and 5% by the geometric mean of the two.
const (
	chaseSlots = 1 << 20
	chaseSteps = 1 << 19
	chainSteps = 1 << 21
)

var (
	chase     []uint32
	chaseSink uint32
	chainSink uint64
)

// reading is one calibration: the time of each loop.
type reading struct{ mem, core time.Duration }

// calibrate runs both loops.
func calibrate() reading {
	if chase == nil {
		// One cycle through every slot (Sattolo's shuffle, fixed seed).
		chase = make([]uint32, chaseSlots)
		for i := range chase {
			chase[i] = uint32(i)
		}
		x := uint64(88172645463325252)
		for i := chaseSlots - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i))
			chase[i], chase[j] = chase[j], chase[i]
		}
	}
	var r reading
	t0 := time.Now()
	p := chaseSink % chaseSlots
	for i := 0; i < chaseSteps; i++ {
		p = chase[p]
	}
	chaseSink = p
	r.mem = time.Since(t0)

	t0 = time.Now()
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < chainSteps; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		e ^= e << 13
		f ^= f >> 7
		g += a ^ b
		h += c ^ d
	}
	chainSink += a + b + c + d + e + f + g + h
	r.core = time.Since(t0)
	return r
}

// memRef and coreRef are the readings of the reference box when nothing
// disturbs it. A host factor is the geometric mean of the two loops'
// readings (each the mean of the readings around a block) over these:
// 1.0 is the quiet reference box, 1.3 a host 1.3 times slower right now.
//
// Every sim_* timing is divided by the host factor of the block it was
// measured in: what is reported is the time the reference box would take,
// and the raw numbers are printed beside it.
const (
	memRef  = 20 * time.Millisecond
	coreRef = 5500 * time.Microsecond
)

func hostFactor(readings ...reading) float64 {
	var mem, core time.Duration
	for _, r := range readings {
		mem += r.mem
		core += r.core
	}
	n := float64(len(readings))
	return math.Sqrt(float64(mem) / n / float64(memRef) * float64(core) / n / float64(coreRef))
}

// hostContext reports the host factors behind a window.
func hostContext(factors []float64, into map[string]measured) {
	f := summarize(factors)
	into["bench.host_factor"] = fromSummary(f, "ratio")
	into["bench.calib_drift_pct"] = scalar(f.spreadPct(), "%")
}

func mulEach(xs, fs []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] * fs[i]
	}
	return out
}

func divEach(xs, fs []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] / fs[i]
	}
	return out
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one kB field (VmRSS, VmHWM) of this process from
// /proc (0 where absent).
func procStatusKB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if !bytes.HasPrefix(line, []byte(field+":")) {
			continue
		}
		f := bytes.Fields(line)
		if len(f) >= 2 {
			v, _ := strconv.ParseFloat(string(f[1]), 64)
			return v
		}
	}
	return 0
}
