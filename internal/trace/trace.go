// Package trace records what happened during one application execution:
// one record per chunk with its full timeline, from which the report
// derives the metrics the paper discusses — makespan, per-worker
// utilization, communication/computation overlap, and the "detailed
// execution report" that let the authors diagnose RUMR's late switch.
package trace

import (
	"io"
	"slices"
	"strconv"
	"unsafe"
)

// Record is the timeline of one chunk.
type Record struct {
	Chunk  int
	Worker int
	// Offset and Size locate the chunk within the load (load units).
	Offset, Size float64
	// Probe marks calibration chunks from the probing round.
	Probe bool
	// SendStart/SendEnd bracket the transfer on the master uplink;
	// CompStart/CompEnd bracket the computation on the worker.
	SendStart, SendEnd, CompStart, CompEnd float64
	// OutputEnd is when the chunk's output arrived back at the master
	// (equal to CompEnd when the application returns no output).
	OutputEnd float64
	// Attempt is the dispatch attempt this record describes, 1-based;
	// a probe chunk's record, which no retry can re-dispatch, holds 0.
	Attempt int
	// Failed marks an abandoned attempt: the timeline holds whatever
	// stages completed before the failure, and OutputEnd the failure
	// time. Failed records are excluded from load/utilization
	// aggregates; the chunk's completing attempt appears separately.
	Failed bool
}

// TransferTime returns the chunk's time on the uplink.
func (r Record) TransferTime() float64 { return r.SendEnd - r.SendStart }

// ComputeTime returns the chunk's time on the worker CPU.
func (r Record) ComputeTime() float64 { return r.CompEnd - r.CompStart }

// Trace accumulates records for one run.
type Trace struct {
	Algorithm string
	Platform  string
	recs      []Record
}

// New returns an empty trace labeled with the algorithm and platform.
func New(algorithm, platform string) *Trace {
	return &Trace{Algorithm: algorithm, Platform: platform}
}

// Reset empties the trace and relabels it, keeping the record buffer's
// capacity so a reused trace accumulates without reallocating.
func (t *Trace) Reset(algorithm, platform string) {
	t.Algorithm, t.Platform = algorithm, platform
	t.recs = t.recs[:0]
}

// Clone returns an independent copy sized to the records it holds —
// what a caller keeps when the trace it was handed is borrowed from a
// reusable workspace (engine.Arena) that the next run will overwrite.
func (t *Trace) Clone() *Trace {
	recs := make([]Record, len(t.recs))
	copy(recs, t.recs)
	return &Trace{Algorithm: t.Algorithm, Platform: t.Platform, recs: recs}
}

// Bytes returns the size of the records the trace holds — what keeping
// it costs.
func (t *Trace) Bytes() int { return len(t.recs) * int(unsafe.Sizeof(Record{})) }

// Add appends a record.
func (t *Trace) Add(r Record) { t.recs = append(t.recs, r) }

// Records returns the records in completion order.
func (t *Trace) Records() []Record { return t.recs }

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.recs) }

// Makespan returns the time of the last event in the trace (chunk output
// arrival), i.e. the application execution time the paper plots.
func (t *Trace) Makespan() float64 {
	m := 0.0
	for i := range t.recs {
		r := &t.recs[i]
		if r.OutputEnd > m {
			m = r.OutputEnd
		}
		if r.CompEnd > m {
			m = r.CompEnd
		}
	}
	return m
}

// Report summarizes a trace.
type Report struct {
	Algorithm string
	Platform  string
	Makespan  float64
	// Chunks is the number of real (non-probe) chunks; Probes counts
	// calibration transfers/executions.
	Chunks, Probes int
	// TotalLoad is the load computed by real chunks.
	TotalLoad float64
	// CommTime is the total uplink busy time; CompTime the summed worker
	// busy time over all real chunks.
	CommTime, CompTime float64
	// Overlap is the fraction of uplink busy time during which at least
	// one worker was computing — UMR's design goal is pushing this
	// toward 1.
	Overlap float64
	// WorkerUtil[i] is worker i's compute busy time divided by the
	// makespan; WorkerLoad[i] the load it computed.
	WorkerUtil []float64
	WorkerLoad []float64
	// IdleFront is the mean per-worker idle time before the first real
	// chunk starts computing (the serialized-distribution stagger).
	IdleFront float64
	// FailedAttempts counts abandoned chunk attempts (retries and
	// permanent losses); RetriedLoad is the load those attempts carried.
	FailedAttempts int
	RetriedLoad    float64
	// ProbeEnd is when the probing round finished (0 for non-probing
	// algorithms); AppMakespan is the makespan net of probing — §3.5's
	// probing is in-band, so both views matter when comparing probing
	// and non-probing algorithms.
	ProbeEnd    float64
	AppMakespan float64
	// LastChunkSizes lists each worker's final chunk size — factoring
	// ends small, UMR ends large; this is the quantity behind the
	// uncertainty-tolerance difference.
	LastChunkSizes []float64
}

// BuildReport derives a Report from the trace for a platform with the
// given number of workers. It counts before it allocates: one pass finds
// the makespan and the number of real chunks, one array backs the five
// per-worker columns and one the two interval lists.
func (t *Trace) BuildReport(workers int) Report {
	rep := Report{Algorithm: t.Algorithm, Platform: t.Platform}
	chunks := 0
	for i := range t.recs {
		r := &t.recs[i]
		if r.OutputEnd > rep.Makespan {
			rep.Makespan = r.OutputEnd
		}
		if r.CompEnd > rep.Makespan {
			rep.Makespan = r.CompEnd
		}
		if !r.Failed && !r.Probe {
			chunks++
		}
	}
	// Full slice expressions keep an append to one exported column from
	// running into the next.
	cols := make([]float64, 5*workers)
	col := func(i int) []float64 { return cols[i*workers : (i+1)*workers : (i+1)*workers] }
	rep.WorkerUtil, rep.WorkerLoad = col(0), col(1)
	lastSize, lastEnd, firstComp := col(2), col(3), col(4)
	for i := range firstComp {
		firstComp[i] = -1
	}
	ivs := make([]interval, 2*chunks)
	comm, comp := ivs[:0:chunks], ivs[chunks:chunks]
	for i := range t.recs {
		r := &t.recs[i]
		if r.Failed {
			// Abandoned attempts never delivered output; counting them
			// would double the chunk's load once the retry completes.
			rep.FailedAttempts++
			rep.RetriedLoad += r.Size
			continue
		}
		if r.Probe {
			rep.Probes++
			if r.CompEnd > rep.ProbeEnd {
				rep.ProbeEnd = r.CompEnd
			}
			if r.SendEnd > rep.ProbeEnd {
				rep.ProbeEnd = r.SendEnd
			}
			continue
		}
		rep.Chunks++
		rep.TotalLoad += r.Size
		rep.CommTime += r.TransferTime()
		rep.CompTime += r.ComputeTime()
		if r.Worker >= 0 && r.Worker < workers {
			rep.WorkerUtil[r.Worker] += r.ComputeTime()
			rep.WorkerLoad[r.Worker] += r.Size
			if r.CompEnd > lastEnd[r.Worker] {
				lastEnd[r.Worker] = r.CompEnd
				lastSize[r.Worker] = r.Size
			}
			if firstComp[r.Worker] < 0 || r.CompStart < firstComp[r.Worker] {
				firstComp[r.Worker] = r.CompStart
			}
		}
		comm = append(comm, interval{r.SendStart, r.SendEnd})
		comp = append(comp, interval{r.CompStart, r.CompEnd})
	}
	if rep.Makespan > 0 {
		for i := range rep.WorkerUtil {
			rep.WorkerUtil[i] /= rep.Makespan
		}
	}
	rep.LastChunkSizes = lastSize
	front := 0.0
	for _, f := range firstComp {
		if f > 0 {
			front += f
		}
	}
	if workers > 0 {
		rep.IdleFront = front / float64(workers)
	}
	rep.Overlap = overlapFraction(comm, comp)
	rep.AppMakespan = rep.Makespan - rep.ProbeEnd
	if rep.AppMakespan < 0 {
		rep.AppMakespan = 0
	}
	return rep
}

// overlapFraction returns the fraction of the union of comm intervals
// covered by the union of comp intervals. It reorders and merges both
// arguments in place.
func overlapFraction(comm, comp []interval) float64 {
	commU := unionIntervals(comm)
	compU := unionIntervals(comp)
	total := 0.0
	for _, c := range commU {
		total += c.e - c.s
	}
	if total == 0 {
		return 0
	}
	cov := 0.0
	j := 0
	for _, c := range commU {
		for j < len(compU) && compU[j].e <= c.s {
			j++
		}
		k := j
		for k < len(compU) && compU[k].s < c.e {
			lo := c.s
			if compU[k].s > lo {
				lo = compU[k].s
			}
			hi := c.e
			if compU[k].e < hi {
				hi = compU[k].e
			}
			if hi > lo {
				cov += hi - lo
			}
			k++
		}
	}
	return cov / total
}

type interval struct{ s, e float64 }

// unionIntervals merges overlapping intervals into a sorted disjoint
// set, in place. Input already ascending by start — the serialized
// uplink's transfers always are — is not sorted again; anything else,
// a NaN start included, goes through the comparison sort.Slice ran, so
// the order it leaves, ties and all, is the order it always left.
func unionIntervals(in []interval) []interval {
	if len(in) == 0 {
		return nil
	}
	ascending := true
	for i := 1; i < len(in) && ascending; i++ {
		ascending = in[i-1].s <= in[i].s // false with a NaN on either side
	}
	if !ascending {
		slices.SortFunc(in, func(a, b interval) int {
			if a.s < b.s {
				return -1
			}
			if a.s > b.s {
				return 1
			}
			return 0
		})
	}
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.s <= last.e {
			if iv.e > last.e {
				last.e = iv.e
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

const csvHeader = "chunk,worker,offset,size,probe," +
	"send_start,send_end,comp_start,comp_end,output_end,attempt,failed\n"

// AppendCSV appends the records as CSV with a header row: what
// encoding/csv writes for these fields, none of which can need quoting
// (integers, %.10g floats with NaN and ±Inf spelled out, true/false).
func (t *Trace) AppendCSV(dst []byte) []byte {
	dst = slices.Grow(dst, 128+96*len(t.recs))
	dst = append(dst, csvHeader...)
	num := func(dst []byte, v float64) []byte {
		return append(strconv.AppendFloat(dst, v, 'g', 10, 64), ',')
	}
	for i := range t.recs {
		r := &t.recs[i]
		dst = append(strconv.AppendInt(dst, int64(r.Chunk), 10), ',')
		dst = append(strconv.AppendInt(dst, int64(r.Worker), 10), ',')
		dst = num(dst, r.Offset)
		dst = num(dst, r.Size)
		dst = append(strconv.AppendBool(dst, r.Probe), ',')
		dst = num(dst, r.SendStart)
		dst = num(dst, r.SendEnd)
		dst = num(dst, r.CompStart)
		dst = num(dst, r.CompEnd)
		dst = num(dst, r.OutputEnd)
		dst = append(strconv.AppendInt(dst, int64(r.Attempt), 10), ',')
		dst = append(strconv.AppendBool(dst, r.Failed), '\n')
	}
	return dst
}

// WriteCSV writes the records as CSV with a header row.
func (t *Trace) WriteCSV(w io.Writer) error {
	_, err := w.Write(t.AppendCSV(nil))
	return err
}

// AppendString appends the one-line summary String returns.
func (rep Report) AppendString(dst []byte) []byte {
	dst = append(dst, rep.Algorithm...)
	dst = append(dst, " on "...)
	dst = append(dst, rep.Platform...)
	dst = append(dst, ": makespan "...)
	dst = strconv.AppendFloat(dst, rep.Makespan, 'f', 1, 64)
	dst = append(dst, "s, "...)
	dst = strconv.AppendInt(dst, int64(rep.Chunks), 10)
	dst = append(dst, " chunks (+"...)
	dst = strconv.AppendInt(dst, int64(rep.Probes), 10)
	dst = append(dst, " probes), overlap "...)
	dst = strconv.AppendFloat(dst, 100*rep.Overlap, 'f', 0, 64)
	return append(dst, '%')
}

// String renders a one-line summary.
func (rep Report) String() string {
	return string(rep.AppendString(make([]byte, 0, 96+len(rep.Algorithm)+len(rep.Platform))))
}
