package trace

import (
	"io"
	"slices"
	"strconv"
)

// What a Gantt bucket shows, in precedence order: a bucket takes the
// highest state of any span that touches it, whatever order the spans
// arrive in.
const (
	ganttIdle byte = iota
	ganttBuffered
	ganttProbe
	ganttCompute
)

// Gantt renders the execution as a per-worker text timeline — the visual
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
func (t *Trace) Gantt(w io.Writer, workers, width int) error {
	_, err := w.Write(t.AppendGantt(nil, workers, width, t.Makespan()))
	return err
}

// AppendGantt appends the timeline Gantt writes. makespan is
// t.Makespan(), an argument so that a caller holding the trace's Report
// does not walk the records for it again.
func (t *Trace) AppendGantt(dst []byte, workers, width int, makespan float64) []byte {
	if width <= 0 {
		width = 80
	}
	if makespan <= 0 || workers <= 0 {
		return append(dst, "(empty trace)\n"...)
	}
	bucket := makespan / float64(width)

	grid := make([]byte, workers*width)
	paint := func(wk int, s, e float64, state byte) {
		if wk < 0 || wk >= workers || e <= s {
			return
		}
		qs, qe := s/bucket, e/bucket
		if qs != qs || qe != qe {
			return // a NaN bound covers no bucket
		}
		// A span that starts before time zero is drawn from the first
		// bucket; one that ends past the makespan, to the last.
		lo, hi := max(int(qs), 0), min(int(qe), width-1)
		row := grid[wk*width : (wk+1)*width]
		for i := lo; i <= hi; i++ {
			row[i] = max(row[i], state)
		}
	}
	for i := range t.recs {
		r := &t.recs[i]
		state := ganttCompute
		if r.Probe {
			state = ganttProbe
		}
		paint(r.Worker, r.SendEnd, r.CompStart, ganttBuffered) // waiting for CPU
		paint(r.Worker, r.CompStart, r.CompEnd, state)
	}

	dst = slices.Grow(dst, workers*(10+3*width)+width+80)
	for wk := 0; wk < workers; wk++ {
		dst = append(dst, 'w')
		if wk < 10 {
			dst = append(dst, '0')
		}
		dst = strconv.AppendInt(dst, int64(wk), 10)
		dst = append(dst, " |"...)
		for _, state := range grid[wk*width : (wk+1)*width] {
			// UTF-8 spelled out: appending constant bytes is a few
			// stores, appending a glyph string a memmove call a bucket.
			switch state {
			case ganttIdle:
				dst = append(dst, 0xC2, 0xB7) // ·
			case ganttBuffered:
				dst = append(dst, 0xE2, 0x96, 0x92) // ▒
			case ganttProbe:
				dst = append(dst, 'p')
			case ganttCompute:
				dst = append(dst, 0xE2, 0x96, 0x88) // █
			}
		}
		dst = append(dst, "|\n"...)
	}
	dst = append(dst, "     0s"...)
	for i := max(1, width-11); i > 0; i-- {
		dst = append(dst, ' ')
	}
	dst = strconv.AppendFloat(dst, makespan, 'f', 0, 64)
	return append(dst, "s  (p probe, ▒ buffered, █ compute, · idle)\n"...)
}
