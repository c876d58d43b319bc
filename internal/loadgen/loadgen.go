// Package loadgen drives a running daemon at production submission
// rates and measures how the serving path holds up: an open-loop
// Poisson arrival process submits the same task specification over and
// over, recording submit→reply latency percentiles, the accepted and
// rejected rates, and (post-drain) the queue-wait distribution of
// accepted jobs.
//
// The generator is open-loop on purpose: arrivals are scheduled on an
// absolute Poisson timeline and each submission's latency is measured
// from its *scheduled* arrival time, not from when the goroutine got
// around to sending it. A server that stalls therefore inflates the
// recorded tail instead of silently slowing the offered load — the
// closed-loop coordinated-omission trap. The only concession is
// MaxOutstanding: arrivals that would exceed it are counted as shed
// rather than queued client-side, so client memory stays bounded while
// the shed count preserves the evidence.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"apstdv/internal/client"
	"apstdv/internal/daemon"
	"apstdv/internal/errcode"
	otrace "apstdv/internal/obs/trace"
)

// Config parameterizes one load-generation run.
type Config struct {
	// Conns is the client connection-pool width.
	Conns int
	// Rate is the offered load in submissions per second.
	Rate float64
	// Duration is the generation window.
	Duration time.Duration
	// MaxOutstanding caps in-flight submissions; arrivals beyond it
	// are shed (counted, not sent). Defaults to 256.
	MaxOutstanding int
	// Seed drives the Poisson arrival process.
	Seed int64
	// TaskXML is the specification submitted on every arrival.
	TaskXML string
	// Priority is the admission class for every submission.
	Priority string
	// SimApp is forwarded to Submit (sim-mode ground truth).
	SimApp *daemon.SimApp
	// DrainTimeout bounds the post-window wait for the daemon to go
	// idle before queue-wait is measured. Defaults to 30s.
	DrainTimeout time.Duration
}

// BenchSpec returns the builtin benchmark task specification: a
// callback-method task of the given load in work units, needing no
// files on disk. The algorithm is SIMPLE-load (one chunk per unit), so
// the load knob directly sets how much scheduling work each accepted
// job costs the daemon.
func BenchSpec(load int) string {
	return fmt.Sprintf(`<task executable="bench" input="virtual">
 <divisibility input="virtual" method="callback" callback="cb" load="%d" algorithm="simple-%d"/>
</task>`, load, load)
}

// Percentiles summarizes a latency sample in milliseconds.
type Percentiles struct {
	N    int
	P50  float64
	P90  float64
	P99  float64
	P999 float64
	Max  float64
}

// Result is one run's measurement.
type Result struct {
	RateHz  float64
	Seconds float64

	// Arrival accounting: Offered = Sent + Shed;
	// Sent = Accepted + Rejected + Errors.
	Offered int
	Shed    int
	// Accepted submissions were admitted (queued or running).
	Accepted int
	// Rejected submissions got a typed daemon error (queue_full,
	// draining, overloaded...) — backpressure working as designed.
	Rejected int
	// Errors are untyped failures (transport breakage, timeouts).
	Errors int

	// AcceptedHz and RejectedHz are the accepted and rejected
	// submissions per second of wall clock from first arrival to last
	// reply. Only the accepted rate is work the daemon took on.
	AcceptedHz float64
	RejectedHz float64

	// Submit is the submit→reply latency over accepted and rejected
	// submissions, measured from the scheduled arrival time.
	Submit Percentiles
	// QueueWait is Started−Submitted over the accepted jobs still
	// retained by the daemon after the drain.
	QueueWait Percentiles
	// QueueWaitSampledFraction is the share of the accepted jobs the
	// queue-wait percentiles were computed from: how representative
	// they are. Jobs evicted by the retention FIFO before any drain
	// poll observed them are the only losses.
	QueueWaitSampledFraction float64

	// Stages is the daemon's per-stage latency attribution (decode,
	// admission, queue, lease, execute) when it runs with tracing on;
	// empty otherwise.
	Stages []otrace.StageStat
}

// Run generates load against the daemon at addr and reports the
// measurement. The daemon is left idle (all generated jobs terminal)
// unless the drain times out.
func Run(addr string, cfg Config) (*Result, error) {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: need a positive rate and duration")
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 256
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	// A client-side collector makes every Submit mint a trace id that
	// rides the wire, so a tracing daemon attributes even its
	// frame-decode work to the request instead of minting its own id
	// after decode, and the run reports per-stage latency (Result.Stages).
	cl, err := client.DialOptions(addr, client.Options{Conns: cfg.Conns, Tracer: otrace.New(0)})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	res := &Result{RateHz: cfg.Rate, Seconds: cfg.Duration.Seconds()}
	var (
		mu        sync.Mutex
		latencies []float64 // seconds
		jobIDs    []int
		wg        sync.WaitGroup
	)
	// The wait sampler runs for the whole window, not just the drain: a
	// job must be observed terminal before the retention FIFO evicts
	// it, and under sustained load most evictions happen mid-run. The
	// poll costs ~20 list RPCs/s against an offered load thousands of
	// times that.
	ws := newWaitSampler()
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-pollStop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			jobs, err := cl.Jobs()
			if err != nil {
				continue
			}
			for _, j := range jobs {
				ws.sample(j)
			}
		}
	}()
	// A fixed pool of submitter goroutines implements the outstanding
	// cap: an unbuffered channel send succeeds only when a worker is
	// free, so arrivals that find all workers busy are shed without
	// spawning anything — the generator loop stays cheap even at rates
	// far past saturation.
	arrivals := make(chan time.Time)
	for i := 0; i < cfg.MaxOutstanding; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for scheduled := range arrivals {
				reply, err := cl.Submit(cfg.TaskXML, "", cfg.Priority, cfg.SimApp)
				lat := time.Since(scheduled).Seconds()
				mu.Lock()
				switch {
				case err == nil:
					res.Accepted++
					latencies = append(latencies, lat)
					jobIDs = append(jobIDs, reply.JobID)
				case errcode.Code(err) != "":
					res.Rejected++
					latencies = append(latencies, lat)
				default:
					res.Errors++
				}
				mu.Unlock()
			}
		}()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if until := time.Until(next); until > 0 {
			time.Sleep(until)
		}
		res.Offered++
		select {
		case arrivals <- next:
		default:
			res.Shed++
		}
	}
	close(arrivals)
	wg.Wait()
	close(pollStop)
	<-pollDone
	elapsed := time.Since(start).Seconds()
	res.AcceptedHz = float64(res.Accepted) / elapsed
	res.RejectedHz = float64(res.Rejected) / elapsed
	res.Submit = percentiles(latencies)

	waits, sampled, err := drainAndMeasureWait(cl, ws, jobIDs, cfg.DrainTimeout)
	if err != nil {
		return res, err
	}
	res.QueueWait = percentiles(waits)
	if res.Accepted > 0 {
		res.QueueWaitSampledFraction = float64(sampled) / float64(res.Accepted)
	}
	// Per-stage attribution rides along when the daemon traces; a
	// daemon without a collector reports Enabled=false and the result
	// simply omits the section.
	if ts, err := cl.TraceStats(); err == nil && ts.Enabled {
		res.Stages = ts.Stages
	}
	return res, nil
}

// waitSampler accumulates queue waits (Started−Submitted) keyed by job
// id, first observation wins. Shared by the in-run poller and the
// post-run drain, so a job observed terminal once keeps its sample
// even after the daemon's retention FIFO evicts it.
type waitSampler struct {
	mu sync.Mutex
	m  map[int]float64
}

func newWaitSampler() *waitSampler { return &waitSampler{m: make(map[int]float64)} }

func (s *waitSampler) sample(j daemon.Job) {
	if j.State == daemon.JobQueued || j.State == daemon.JobRunning || j.Started.IsZero() {
		return
	}
	s.mu.Lock()
	if _, ok := s.m[j.ID]; !ok {
		s.m[j.ID] = j.Started.Sub(j.Submitted).Seconds()
	}
	s.mu.Unlock()
}

func (s *waitSampler) has(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[id]
	return ok
}

// collect returns the waits of the accepted jobs sampled so far.
func (s *waitSampler) collect(accepted map[int]bool) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	waits := make([]float64, 0, len(s.m))
	for id, w := range s.m {
		if accepted[id] {
			waits = append(waits, w)
		}
	}
	return waits
}

// drainAndMeasureWait polls until every generated job is terminal (the
// accepted ones may still be queued or running), sampling waits as
// jobs land, then sweeps Status for any accepted job the list polls
// never caught. (The pre-sampler version returned only the final
// poll's surviving snapshot — n=32 of 2544 accepted under a 2048-job
// retention cap.) The only unsampled jobs are those evicted before any
// poll saw them terminal; the caller reports the sampled fraction so
// the percentiles carry their own confidence.
func drainAndMeasureWait(cl *client.Client, ws *waitSampler, jobIDs []int, timeout time.Duration) ([]float64, int, error) {
	accepted := make(map[int]bool, len(jobIDs))
	for _, id := range jobIDs {
		accepted[id] = true
	}
	done := func() ([]float64, int) {
		waits := ws.collect(accepted)
		return waits, len(waits)
	}
	deadline := time.Now().Add(timeout)
	for {
		jobs, err := cl.Jobs()
		if err != nil {
			return nil, 0, err
		}
		busy := 0
		for _, j := range jobs {
			if !accepted[j.ID] {
				continue
			}
			switch j.State {
			case daemon.JobQueued, daemon.JobRunning:
				busy++
			default:
				ws.sample(j)
			}
		}
		if busy == 0 {
			break
		}
		if time.Now().After(deadline) {
			waits, n := done()
			return waits, n, fmt.Errorf("loadgen: %d jobs still queued/running after %v drain", busy, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Sweep the stragglers one by one: accepted jobs no poll caught
	// terminal. Evicted jobs answer job_not_found (lost, reflected in
	// the sampled fraction); cancelled jobs never started and carry no
	// wait.
	for _, id := range jobIDs {
		if ws.has(id) {
			continue
		}
		j, err := cl.Status(id)
		if err != nil {
			if errors.Is(err, daemon.ErrJobNotFound) {
				continue
			}
			waits, n := done()
			return waits, n, err
		}
		ws.sample(j)
	}
	waits, n := done()
	return waits, n, nil
}

// percentiles summarizes a latency sample (seconds in, ms out).
func percentiles(xs []float64) Percentiles {
	if len(xs) == 0 {
		return Percentiles{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i] * 1e3
	}
	return Percentiles{
		N: len(sorted), P50: at(0.50), P90: at(0.90),
		P99: at(0.99), P999: at(0.999), Max: sorted[len(sorted)-1] * 1e3,
	}
}
