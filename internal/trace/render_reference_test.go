package trace

// The renderers and the analysis as they stood before they were
// rewritten to append into one buffer, kept verbatim (receivers turned
// into first arguments, names prefixed ref) as the reference the
// differential test and the fuzz target hold the new ones to: every
// output must stay byte for byte, and every Report field bit for bit,
// what these produce. The one licensed difference is where refGantt
// panics (a span starting below zero or at NaN).

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// refBuildReport derives a Report from the trace for a platform with the
// given number of workers.
func refBuildReport(t *Trace, workers int) Report {
	rep := Report{
		Algorithm:  t.Algorithm,
		Platform:   t.Platform,
		Makespan:   t.Makespan(),
		WorkerUtil: make([]float64, workers),
		WorkerLoad: make([]float64, workers),
	}
	lastSize := make([]float64, workers)
	lastEnd := make([]float64, workers)
	firstComp := make([]float64, workers)
	for i := range firstComp {
		firstComp[i] = -1
	}
	var comm []interval
	var comp []interval
	for _, r := range t.recs {
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
	rep.Overlap = refOverlapFraction(comm, comp)
	rep.AppMakespan = rep.Makespan - rep.ProbeEnd
	if rep.AppMakespan < 0 {
		rep.AppMakespan = 0
	}
	return rep
}

// refOverlapFraction returns the fraction of the union of comm intervals
// covered by the union of comp intervals.
func refOverlapFraction(comm, comp []interval) float64 {
	commU := refUnionIntervals(comm)
	compU := refUnionIntervals(comp)
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

// refUnionIntervals merges overlapping intervals into a sorted disjoint set.
func refUnionIntervals(in []interval) []interval {
	if len(in) == 0 {
		return nil
	}
	cp := append([]interval(nil), in...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].s < cp[j].s })
	out := cp[:1]
	for _, iv := range cp[1:] {
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

// refWriteCSV writes the records as CSV with a header row.
func refWriteCSV(t *Trace, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"chunk", "worker", "offset", "size", "probe",
		"send_start", "send_end", "comp_start", "comp_end", "output_end",
		"attempt", "failed",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
	for _, r := range t.recs {
		err := cw.Write([]string{
			strconv.Itoa(r.Chunk), strconv.Itoa(r.Worker),
			f(r.Offset), f(r.Size), strconv.FormatBool(r.Probe),
			f(r.SendStart), f(r.SendEnd), f(r.CompStart), f(r.CompEnd), f(r.OutputEnd),
			strconv.Itoa(r.Attempt), strconv.FormatBool(r.Failed),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// refReportString renders a one-line summary.
func refReportString(rep Report) string {
	return fmt.Sprintf("%s on %s: makespan %.1fs, %d chunks (+%d probes), overlap %.0f%%",
		rep.Algorithm, rep.Platform, rep.Makespan, rep.Chunks, rep.Probes, 100*rep.Overlap)
}

// refGantt renders the execution as a per-worker text timeline — the visual
// form of the "detailed execution report" that let the paper's authors
// see RUMR dispatching its last large round before the switch condition
// fired. One row per worker; columns are time buckets:
//
//	w00 |pp▒▒▒▒████████████·███████████████████████████ |
//
//	p  probing work        ▒  receiving/buffered (chunk sent, not started)
//	█  computing           ·  idle
//
// Width is the number of time buckets; a bucket shows the dominant state
// within its time span.
func refGantt(t *Trace, w io.Writer, workers, width int) error {
	if width <= 0 {
		width = 80
	}
	makespan := t.Makespan()
	if makespan <= 0 || workers <= 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	bucket := makespan / float64(width)

	type span struct {
		s, e  float64
		state byte // precedence: compute > buffered > probe
	}
	rows := make([][]span, workers)
	add := func(wk int, s, e float64, state byte) {
		if wk < 0 || wk >= workers || e <= s {
			return
		}
		rows[wk] = append(rows[wk], span{s, e, state})
	}
	for _, r := range t.recs {
		state := byte('C')
		if r.Probe {
			state = 'P'
		}
		add(r.Worker, r.SendEnd, r.CompStart, 'B') // buffered, waiting for CPU
		add(r.Worker, r.CompStart, r.CompEnd, state)
	}

	glyph := map[byte]rune{'C': '█', 'B': '▒', 'P': 'p'}
	precedence := map[byte]int{'C': 3, 'P': 2, 'B': 1}
	for wk := 0; wk < workers; wk++ {
		line := make([]rune, width)
		winner := make([]int, width)
		for i := range line {
			line[i] = '·'
		}
		sort.Slice(rows[wk], func(i, j int) bool { return rows[wk][i].s < rows[wk][j].s })
		for _, sp := range rows[wk] {
			lo := int(sp.s / bucket)
			hi := int(sp.e / bucket)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				if p := precedence[sp.state]; p > winner[i] {
					winner[i] = p
					line[i] = glyph[sp.state]
				}
			}
		}
		if _, err := fmt.Fprintf(w, "w%02d |%s|\n", wk, string(line)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "     0s%s%.0fs  (p probe, ▒ buffered, █ compute, · idle)\n",
		strings.Repeat(" ", maxInt(1, width-11)), makespan)
	return err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
