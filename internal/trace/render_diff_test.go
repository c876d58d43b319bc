package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"apstdv/internal/raceflag"
)

// CheckAgainstReference holds BuildReport, Report.String, WriteCSV and
// Gantt to their references on one trace: texts byte for byte, Report
// fields bit for bit. refPanicked reports that refGantt panicked (a
// span below zero or at NaN), the one case with nothing to compare;
// Gantt itself must not. It is exported for package trace_test, which
// feeds it the traces of real runs.
func CheckAgainstReference(tr *Trace, workers, width int) (refPanicked bool, err error) {
	want := refBuildReport(tr, workers)
	got := tr.BuildReport(workers)
	if err := sameReport(got, want); err != nil {
		return false, fmt.Errorf("BuildReport(%d): %w", workers, err)
	}
	if g, w := got.String(), refReportString(want); g != w {
		return false, fmt.Errorf("Report.String:\n got %q\nwant %q", g, w)
	}
	if g, w := string(got.AppendString([]byte("x"))), "x"+refReportString(want); g != w {
		return false, fmt.Errorf("Report.AppendString onto a prefix:\n got %q\nwant %q", g, w)
	}

	var gotCSV, wantCSV bytes.Buffer
	if err := refWriteCSV(tr, &wantCSV); err != nil {
		return false, err
	}
	if err := tr.WriteCSV(&gotCSV); err != nil {
		return false, err
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		return false, fmt.Errorf("WriteCSV:\n got %q\nwant %q", gotCSV.Bytes(), wantCSV.Bytes())
	}

	var gotGantt, wantGantt bytes.Buffer
	if err := tr.Gantt(&gotGantt, workers, width); err != nil {
		return false, err
	}
	func() {
		defer func() { refPanicked = recover() != nil }()
		err = refGantt(tr, &wantGantt, workers, width)
	}()
	if refPanicked || err != nil {
		return refPanicked, err
	}
	if !bytes.Equal(gotGantt.Bytes(), wantGantt.Bytes()) {
		return false, fmt.Errorf("Gantt(%d, %d):\n got\n%s\nwant\n%s", workers, width, gotGantt.Bytes(), wantGantt.Bytes())
	}
	return false, nil
}

// sameReport compares every field of two Reports, floats by their bits
// (so 0 differs from -0), except that a NaN is a NaN: which operand's
// payload an operation on two NaNs keeps is the compiler's choice, and
// no renderer shows it. It walks the struct by reflection so that a
// field added later is compared too.
func sameReport(got, want Report) error {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	sameFloat := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		switch gv := g.Field(i).Interface().(type) {
		case string, int:
			if gv != w.Field(i).Interface() {
				return fmt.Errorf("%s = %v, want %v", name, gv, w.Field(i).Interface())
			}
		case float64:
			if wv := w.Field(i).Float(); !sameFloat(gv, wv) {
				return fmt.Errorf("%s = %v (%#x), want %v (%#x)", name, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
			}
		case []float64:
			wv := w.Field(i).Interface().([]float64)
			if len(gv) != len(wv) {
				return fmt.Errorf("len(%s) = %d, want %d", name, len(gv), len(wv))
			}
			for k := range gv {
				if !sameFloat(gv[k], wv[k]) {
					return fmt.Errorf("%s[%d] = %v, want %v", name, k, gv[k], wv[k])
				}
			}
		default:
			return fmt.Errorf("field %s has a type sameReport does not compare", name)
		}
	}
	return nil
}

var (
	oddFloats  = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, 1e-300, -1e300, 0}
	ganttWidth = []int{0, 1, 7, 11, 12, 80, 100, 133}
)

// randomTrace draws a trace and the (workers, width) to render it at.
// Times are non-negative multiples of a quarter second, so equal starts
// and zero-length spans are common and refGantt cannot panic; wild adds
// negative, NaN, infinite and huge times, where it can.
func randomTrace(rnd *rand.Rand, wild bool) (tr *Trace, workers, width int) {
	workers = 1 + rnd.Intn(12)
	if rnd.Intn(8) == 0 {
		workers = 1 + rnd.Intn(130) // w%02d meets three digits
	}
	width = ganttWidth[rnd.Intn(len(ganttWidth))]
	n := rnd.Intn(30)
	if rnd.Intn(6) == 0 {
		n = rnd.Intn(300) // well past the sort's insertion-sort cutoff
	}
	tr = New([]string{"umr", "simple-1", "wf", ""}[rnd.Intn(4)], []string{"das2-16", "a b,c\n", "météor"}[rnd.Intn(3)])
	quarter := func(max int) float64 { return float64(rnd.Intn(max)) / 4 }
	amount := func() float64 {
		if rnd.Intn(10) == 0 {
			return oddFloats[rnd.Intn(len(oddFloats))]
		}
		return quarter(4000)
	}
	now := 0.0
	for i := 0; i < n; i++ {
		r := Record{
			Chunk: i, Worker: rnd.Intn(workers),
			Offset: amount(), Size: amount(),
			Probe: rnd.Intn(7) == 0, Failed: rnd.Intn(10) == 0, Attempt: rnd.Intn(4),
		}
		if rnd.Intn(15) == 0 {
			r.Worker = []int{-1, workers, workers + 7, -1 << 40}[rnd.Intn(4)]
		}
		if rnd.Intn(20) == 0 {
			r.Chunk, r.Attempt = -rnd.Int(), rnd.Int()
		}
		// A serialized uplink: each transfer starts where the last
		// ended, so comm arrives sorted unless the records are shuffled.
		r.SendStart = now
		r.SendEnd = r.SendStart + quarter(8)
		now = r.SendEnd
		r.CompStart = r.SendEnd + quarter(6)
		r.CompEnd = r.CompStart + quarter(40)
		r.OutputEnd = r.CompEnd + quarter(3)
		if rnd.Intn(12) == 0 { // a stage out of order within the record
			r.CompStart, r.SendEnd = r.SendEnd, r.CompStart+quarter(9)
		}
		if wild {
			for _, f := range []*float64{&r.SendStart, &r.SendEnd, &r.CompStart, &r.CompEnd, &r.OutputEnd} {
				switch rnd.Intn(12) {
				case 0:
					*f = oddFloats[rnd.Intn(len(oddFloats))]
				case 1:
					*f = -*f
				}
			}
		}
		tr.Add(r)
	}
	if rnd.Intn(3) == 0 { // records out of time order
		rnd.Shuffle(len(tr.recs), func(i, j int) { tr.recs[i], tr.recs[j] = tr.recs[j], tr.recs[i] })
	}
	return tr, workers, width
}

// TestRenderersMatchReference is the differential test behind the
// report path's rewrite: over seeded traces the append-form renderers
// and the analysis repeat their references byte for byte and bit for
// bit. One trace in eight has wild times; on those the comparison of
// Gantt is skipped exactly where the reference panics.
func TestRenderersMatchReference(t *testing.T) {
	cases := 24000
	if testing.Short() || raceflag.Enabled {
		cases = 3000
	}
	rnd := rand.New(rand.NewSource(23))
	compared, panicked := 0, 0
	for i := 0; i < cases; i++ {
		wild := i%8 == 7
		tr, workers, width := randomTrace(rnd, wild)
		refPanicked, err := CheckAgainstReference(tr, workers, width)
		if err != nil {
			t.Fatalf("case %d (wild %v, %d records): %v", i, wild, tr.Len(), err)
		}
		if refPanicked && !wild {
			t.Fatalf("case %d: refGantt panicked on a tame trace; the generator is off", i)
		}
		if refPanicked {
			panicked++
		} else {
			compared++
		}
	}
	t.Logf("%d traces: %d compared in full, %d where refGantt panicked and Gantt did not", cases, compared, panicked)
	if !testing.Short() && !raceflag.Enabled && compared < 20000 {
		t.Errorf("only %d traces compared in full, want at least 20000", compared)
	}
	if panicked == 0 {
		t.Error("no wild trace made refGantt panic: the clamp is not exercised")
	}
}

// recordBytes is the size of one record in the fuzz encoding: worker
// and flags in two bytes, then offset, size and the five times as
// little-endian float64s.
const recordBytes = 2 + 7*8

// traceFromBytes reads a trace the way FuzzReportRenderersMatchReference
// is fed one: the first two bytes choose workers (1–130) and the Gantt
// width, the rest are records.
func traceFromBytes(raw []byte) (tr *Trace, workers, width int) {
	workers, width = 1, 80
	if len(raw) >= 2 {
		workers, width = 1+int(raw[0])%130, ganttWidth[int(raw[1])%len(ganttWidth)]
		raw = raw[2:]
	}
	tr = New("fuzz", "raw")
	for i := 0; len(raw) >= recordBytes && i < 96; i, raw = i+1, raw[recordBytes:] {
		f := func(k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw[2+8*k:])) }
		tr.Add(Record{
			Chunk: i, Worker: int(int8(raw[0])), Attempt: int(raw[1] >> 2),
			Probe: raw[1]&1 != 0, Failed: raw[1]&2 != 0,
			Offset: f(0), Size: f(1),
			SendStart: f(2), SendEnd: f(3), CompStart: f(4), CompEnd: f(5), OutputEnd: f(6),
		})
	}
	return tr, workers, width
}

// traceToBytes is traceFromBytes backwards, for seeding the corpus.
func traceToBytes(tr *Trace, workers, widthIndex int) []byte {
	raw := []byte{byte(workers - 1), byte(widthIndex)}
	for _, r := range tr.recs {
		flags := byte(r.Attempt) << 2
		if r.Probe {
			flags |= 1
		}
		if r.Failed {
			flags |= 2
		}
		raw = append(raw, byte(int8(r.Worker)), flags)
		for _, v := range []float64{r.Offset, r.Size, r.SendStart, r.SendEnd, r.CompStart, r.CompEnd, r.OutputEnd} {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	return raw
}

// FuzzReportRenderersMatchReference feeds raw record bytes — any float
// a time, a size or an offset can be — to every renderer and its
// reference. Beyond agreement it states what lets AppendCSV skip
// encoding/csv: no field it writes, NaN, ±Inf, 1e+06 and -0 included,
// ever needs quoting, so every line has exactly twelve bare fields.
func FuzzReportRenderersMatchReference(f *testing.F) {
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		tr, workers, _ := randomTrace(rnd, i%2 == 1)
		tr.recs = tr.recs[:min(tr.Len(), 16)] // short seeds keep the minimizer quick
		f.Add(traceToBytes(tr, workers, i))
	}
	odd := New("odd", "floats")
	for i, v := range append(oddFloats, 1e6, 1e21, 123456789012, 5e-324) {
		odd.Add(Record{Worker: i % 3, Offset: v, Size: -v, SendStart: v, SendEnd: 1, CompStart: 1, CompEnd: 2, OutputEnd: v})
	}
	f.Add(traceToBytes(odd, 3, 3))
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, workers, width := traceFromBytes(raw)
		if _, err := CheckAgainstReference(tr, workers, width); err != nil {
			t.Fatal(err)
		}
		csv := string(tr.AppendCSV(nil))
		if strings.ContainsAny(csv, "\"\r ") {
			t.Fatalf("a CSV field that encoding/csv would have quoted:\n%s", csv)
		}
		lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
		if len(lines) != 1+tr.Len() {
			t.Fatalf("%d CSV lines for %d records", len(lines), tr.Len())
		}
		for _, line := range lines {
			if strings.Count(line, ",") != 11 {
				t.Fatalf("CSV line without exactly twelve fields: %q", line)
			}
		}
	})
}

// TestGanttNegativeAndNaNTimes pins the one licensed difference from
// the reference: a span that starts below zero is drawn from the first
// bucket and one with a NaN bound is not drawn, where indexing the row
// at int(s/bucket) used to panic — inside Daemon.Report, with nothing
// above it to recover.
func TestGanttNegativeAndNaNTimes(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		rec     Record
		wantRow string
	}{
		{"send end below zero", Record{SendEnd: -1, CompStart: 4, CompEnd: 10, OutputEnd: 10}, "w00 |▒▒▒▒██████|"},
		{"NaN send end", Record{SendEnd: nan, CompStart: 4, CompEnd: 10, OutputEnd: 10}, "w00 |····██████|"},
		{"NaN compute start", Record{SendEnd: 2, CompStart: nan, CompEnd: 10, OutputEnd: 10}, "w00 |··········|"},
		{"every span below zero", Record{SendEnd: -9, CompStart: -5, CompEnd: -1, OutputEnd: 10}, "w00 |··········|"},
		{"infinite makespan", Record{SendEnd: 1, CompStart: math.Inf(1), CompEnd: math.Inf(1), OutputEnd: math.Inf(1)}, "w00 |··········|"},
	}
	for _, c := range cases {
		tr := New("umr", "bad-clock")
		tr.Add(c.rec)
		var ref bytes.Buffer
		refPanics := func() (p bool) {
			defer func() { p = recover() != nil }()
			refGantt(tr, &ref, 1, 10)
			return false
		}()
		var b bytes.Buffer
		if err := tr.Gantt(&b, 1, 10); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		row := strings.SplitN(b.String(), "\n", 2)[0]
		if row != c.wantRow || strings.Count(b.String(), "\n") != 2 {
			t.Errorf("%s: row %q, want %q then the axis line; whole chart:\n%s", c.name, row, c.wantRow, b.String())
		}
		if !refPanics && b.String() != ref.String() {
			t.Errorf("%s: the reference renders this one, differently:\n%s\nvs\n%s", c.name, b.String(), ref.String())
		}
	}
}
