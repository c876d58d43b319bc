package dls

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"apstdv/internal/model"
	"apstdv/internal/raceflag"
	"apstdv/internal/rng"
)

// logUniform draws from [lo, hi) with every order of magnitude as likely
// as any other.
func logUniform(src *rng.Source, lo, hi float64) float64 {
	return math.Exp(src.Uniform(math.Log(lo), math.Log(hi)))
}

// searchCase draws one planner input from a space built to include the
// regimes randomPlan never reaches: one worker, communication as dear as
// computation (A ≥ 1), A within 1e-12 of 1, free communication (A = 0),
// zero latencies, latencies longer than a whole round, equal-speed
// workers, costs spread over many orders of magnitude, every granularity
// the paper's applications use, and the phase-1 fractions RUMR and
// Fixed-RUMR plan with.
func searchCase(src *rng.Source) (Plan, float64) {
	n := 1 + src.Intn(16)
	if src.Intn(8) == 0 {
		n = 1
	}
	total := logUniform(src, 10, 1e6)
	regime := src.Intn(8)
	noLatency := src.Intn(4) == 0
	ests := make([]model.Estimate, n)
	for i := range ests {
		e := model.Estimate{
			Worker:      i,
			UnitComp:    src.Uniform(0.05, 2),
			CommLatency: src.Uniform(0, 10),
			CompLatency: src.Uniform(0, 2),
		}
		e.UnitComm = e.UnitComp * src.Uniform(0.0005, 0.9) / float64(n)
		switch regime {
		case 1: // communication-dominated: A ≥ 1
			e.UnitComm = e.UnitComp * src.Uniform(1, 3*float64(n)) / float64(n)
		case 2: // A = Σ 1/n, within a few ulps of 1
			e.UnitComm = e.UnitComp / float64(n)
		case 3: // free communication: A = 0
			e.UnitComm = 0
		case 4: // latencies of the order of, and longer than, a round
			round := total * e.UnitComp / float64(n)
			e.CommLatency = round * logUniform(src, 0.01, 5)
			e.CompLatency = round * logUniform(src, 0.01, 5)
		case 5: // equal-speed workers: ties in the fastest-first order
			e.UnitComp = 0.25
		case 6: // costs over many orders of magnitude
			e.UnitComp = logUniform(src, 1e-6, 1e3)
			e.UnitComm = e.UnitComp * logUniform(src, 1e-6, 10) / float64(n)
			e.CommLatency = logUniform(src, 1e-9, 1e4)
			e.CompLatency = logUniform(src, 1e-9, 1e4)
		}
		if noLatency {
			e.CommLatency, e.CompLatency = 0, 0
		}
		ests[i] = e
	}
	p := Plan{TotalLoad: total, MinChunk: []float64{0, 1, 10}[src.Intn(3)], Workers: ests}
	return p, total * []float64{1, 0.8, 0.5}[src.Intn(3)]
}

// umrResult is one PlanUMRRounds answer held as a value, so tests can
// compare answers and cut them into rounds.
type umrResult struct {
	seq      []Decision
	roundLen int
	pred     float64
	err      error
}

// result collects a PlanUMRRounds-shaped answer: result(PlanUMRRounds(p, load)).
func result(seq []Decision, roundLen int, pred float64, err error) umrResult {
	return umrResult{seq, roundLen, pred, err}
}

// rounds cuts the schedule into its rounds. A sequence that is not a
// whole number of rounds is a broken plan, not a view to work around.
func (r umrResult) rounds() [][]Decision {
	if len(r.seq) > 0 && (r.roundLen <= 0 || len(r.seq)%r.roundLen != 0) {
		panic(fmt.Sprintf("%d decisions are not whole rounds of %d", len(r.seq), r.roundLen))
	}
	var out [][]Decision
	for s := r.seq; len(s) > 0; s = s[r.roundLen:] {
		out = append(out, s[:r.roundLen:r.roundLen])
	}
	return out
}

// sameUMRPlan reports the first difference between two PlanUMRRounds
// results, comparing floats by bit pattern, or "" when there is none.
func sameUMRPlan(got, want umrResult) string {
	switch {
	case got.err != nil || want.err != nil:
		return fmt.Sprintf("a refusal: got %v, want %v", got.err, want.err)
	case got.roundLen != want.roundLen:
		return "different round widths"
	case len(got.seq) != len(want.seq):
		return "different round counts"
	case !sameBits(got.pred, want.pred):
		return "different predicted makespans"
	}
	for i, w := range want.seq {
		if g := got.seq[i]; g.Worker != w.Worker || !sameBits(g.Size, w.Size) {
			return "different decisions"
		}
	}
	return ""
}

// oneRoundDefect reports what keeps a plan from being the single weighted
// round production falls back to where no round count is feasible: one
// round, each worker at most once, positive finite sizes that add up to
// the load. It returns "" for a sound one.
func oneRoundDefect(r umrResult, p Plan, load float64) string {
	if r.err != nil {
		return "refused: " + r.err.Error()
	}
	if r.roundLen != len(r.seq) || len(r.seq) == 0 || len(r.seq) > len(p.Workers) {
		return "not one round over some of the workers"
	}
	served := make(map[int]bool)
	for _, d := range r.seq {
		if d.Worker < 0 || d.Worker >= len(p.Workers) || served[d.Worker] {
			return fmt.Sprintf("worker %d is out of range or served twice", d.Worker)
		}
		served[d.Worker] = true
		if !(d.Size > 0) || math.IsInf(d.Size, 0) {
			return fmt.Sprintf("size %v is not positive and finite", d.Size)
		}
	}
	if got := sumSizes(r.seq); !nearly(got, load, 1e-9) {
		return fmt.Sprintf("dispatches %v of %v", got, load)
	}
	return ""
}

// checkUMRSearchMatchesReference plans one input with the production
// search, cold and again from the scratch that now holds the input, and
// requires both to equal the reference scan. Where the reference refuses
// (no round count is feasible) production must instead plan one sound
// weighted round and repeat it bit for bit. It then walks the whole
// landscape: every M is feasible for both or for neither, with the same
// prediction. Candidates near saturation never win, so only this second
// comparison would catch a lower bound that rejects a candidate the
// exact drift check accepts. It reports whether the input was feasible.
func checkUMRSearchMatchesReference(t *testing.T, ref *refScratch, sc *umrScratch, p Plan, load float64) bool {
	t.Helper()
	want := result(ref.referencePlanUMRRounds(p, load))
	feasible := want.err == nil
	if !feasible {
		want = result(sc.plan(p, load))
		if defect := oneRoundDefect(want, p, load); defect != "" {
			t.Fatalf("fallback plan: %s\npredicted %v, decisions %v\nload %v of %+v", defect, want.pred, want.seq, load, p)
		}
	}
	for _, pass := range []string{"searched", "repeated"} {
		got := result(sc.plan(p, load))
		if diff := sameUMRPlan(got, want); diff != "" {
			t.Fatalf("%s plan: %s\nproduction: %d decisions in rounds of %d, predicted %v, err %v\nreference:  %d decisions in rounds of %d, predicted %v, err %v\nload %v of %+v",
				pass, diff, len(got.seq), got.roundLen, got.pred, got.err, len(want.seq), want.roundLen, want.pred, want.err, load, p)
		}
	}
	for m, want := range ref.landscape {
		got := math.NaN()
		if m >= 1 && m < sc.limit {
			if pred, ok := sc.candidate(m, nil); ok {
				got = pred
			}
		}
		if math.IsNaN(got) != math.IsNaN(want) || (!math.IsNaN(want) && !sameBits(got, want)) {
			t.Fatalf("M = %d: production predicts %v, reference %v (NaN: infeasible)\nload %v of %+v", m, got, want, load, p)
		}
	}
	return feasible
}

// TestUMRSearchMatchesReference is the differential test behind the
// round search's rewrite: over a seeded space of ten thousand inputs the
// production search and the reference scan agree on which inputs have a
// feasible round count and, for those, on the round count, every
// decision and the predicted makespan, bit for bit. That many inputs
// catch dropping either granularity-floor rejection in candidate, or
// loosening the tolerance under which it leaves drift unabsorbed; the
// wider landscape is FuzzUMRSearchMatchesReference's.
func TestUMRSearchMatchesReference(t *testing.T) {
	cases := 10000
	if testing.Short() || raceflag.Enabled {
		cases = 5000
	}
	// One goroutine on purpose: go test runs packages side by side, and
	// the wall-clock probes of the live tests next door want their core.
	src := rng.New(1000)
	var ref refScratch
	var sc umrScratch
	total := 0
	for i := 0; i < cases; i++ {
		p, load := searchCase(src)
		if err := p.Validate(); err != nil {
			t.Fatalf("generator drew an invalid plan: %v", err)
		}
		if checkUMRSearchMatchesReference(t, &ref, &sc, p, load) {
			total++
		}
	}
	t.Logf("%d cases, %d feasible, 0 mismatches", cases, total)
	// Both outcomes have to be exercised for the agreement to mean much.
	if total < cases/4 || total > cases-cases/20 {
		t.Errorf("%d of %d cases feasible: the generator no longer mixes plans and refusals", total, cases)
	}
}

// extremePlan draws a plan Plan.Validate admits with costs over two
// hundred orders of magnitude, a regime FuzzPlanConservesOrRefuses leaves
// out: 1–4 workers; UnitComp always, and UnitComm, CommLatency and
// CompLatency each with probability 2/3 (0 otherwise), as
// 10^k·U(0.5, 1.5) for an integer k in −100…100; a load of
// round(10^k·U(0.5, 1.5)) for k in 0…6; no granularity.
func extremePlan(r *rand.Rand) Plan {
	draw := func(lo, hi int) float64 {
		return math.Pow(10, float64(lo+r.Intn(hi-lo+1))) * (0.5 + r.Float64())
	}
	for {
		ests := make([]model.Estimate, 1+r.Intn(4))
		for i := range ests {
			e := &ests[i]
			*e = model.Estimate{Worker: i, UnitComp: draw(-100, 100)}
			for _, v := range []*float64{&e.UnitComm, &e.CommLatency, &e.CompLatency} {
				if r.Intn(3) > 0 {
					*v = draw(-100, 100)
				}
			}
		}
		if p := (Plan{TotalLoad: math.Round(draw(0, 6)), Workers: ests}); p.Validate() == nil {
			return p
		}
	}
}

// TestUMRPlansConserveAtExtremeMagnitudes: where the unscaled last round
// of a candidate dwarfs the load, absorbing the drift into it scales
// every chunk to 0 or drops the load's low digits, and the search used to
// accept the result. Every plan must add up to its load; the two inputs
// below are the examples that did not, and they and a sample of the rest
// run to completion under the four algorithms built on PlanUMRRounds.
func TestUMRPlansConserveAtExtremeMagnitudes(t *testing.T) {
	examples := map[string]Plan{
		"all-zero": {TotalLoad: 859, Workers: []model.Estimate{
			{Worker: 0, UnitComp: 1.0314547465337766e-34, CompLatency: 7.167226435238101e+86, CommLatency: 1.2147316211523874e-72},
		}},
		"lost-digits": {TotalLoad: 1402, Workers: []model.Estimate{
			{Worker: 0, UnitComm: 7.449571311361724e-12, UnitComp: 9.812576384713184e-34, CompLatency: 77.95347167234141},
			{Worker: 1, UnitComp: 1.2219110075157125e-15},
			{Worker: 2, UnitComm: 9.101958054561307e-79, CommLatency: 9.848530039227654e-33,
				UnitComp: 7.745154990554578e+24, CompLatency: 7.086781729822008e-14},
		}},
	}
	// planned returns what the plan for p adds up to.
	planned := func(p Plan) float64 {
		seq, _, _, err := PlanUMRRounds(p, p.TotalLoad)
		if err != nil {
			t.Fatalf("refused %+v: %v", p, err)
		}
		return sumSizes(seq)
	}
	// runs drives the UMR family on p. Fixed-RUMR only has to plan: it
	// always hands a fifth of the load to weighted factoring, which at
	// these magnitudes can feed chunks of the minimum size — 1e-57 units
	// for lost-digits — to a worker of weight ≈ 0 that finishes each at
	// once, without end (ROADMAP item 1). The other three stay in UMR on
	// a noise-free run and must finish.
	runs := func(p Plan) {
		for name := range umrFamily {
			alg, _ := New(name)
			if name == "fixed-rumr" {
				if err := alg.Plan(p); err != nil {
					t.Errorf("%s: %v\n%+v", name, err, p)
				}
				continue
			}
			f := newFakeEngine(p.Workers, p.TotalLoad, p.MinChunk)
			if err := f.run(alg); err != nil {
				t.Errorf("%s: %v\n%+v", name, err, p)
			} else if !nearly(f.completed, p.TotalLoad, 1e-6) {
				t.Errorf("%s completed %v of %v\n%+v", name, f.completed, p.TotalLoad, p)
			}
		}
	}
	for name, p := range examples {
		if got := planned(p); !nearly(got, p.TotalLoad, 1e-6) {
			t.Errorf("%s: the plan adds up to %v of %v", name, got, p.TotalLoad)
		}
		runs(p)
	}

	cases := 100000
	if testing.Short() || raceflag.Enabled {
		cases = 5000
	}
	r := rand.New(rand.NewSource(2))
	zero, off := 0, 0
	for i := 0; i < cases; i++ {
		p := extremePlan(r)
		switch got := planned(p); {
		case got == 0:
			zero++
		case !nearly(got, p.TotalLoad, 1e-6):
			off++
		}
		if i%1000 == 0 {
			runs(p)
		}
	}
	if zero+off > 0 {
		t.Errorf("of %d plans, %d add up to 0 and %d are off by more than 1e-6 of the load", cases, zero, off)
	}
}

// estimateBytes writes estimates the way the fuzz targets read them: four
// little-endian float64s per worker (unit comm, comm latency, unit comp,
// comp latency).
func estimateBytes(ests []model.Estimate) []byte {
	var raw []byte
	for _, e := range ests {
		for _, v := range []float64{e.UnitComm, e.CommLatency, e.UnitComp, e.CompLatency} {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	return raw
}

// estimatesFromBytes reads up to max workers back.
func estimatesFromBytes(raw []byte, max int) []model.Estimate {
	var ests []model.Estimate
	for i := 0; len(raw) >= 32 && i < max; i, raw = i+1, raw[32:] {
		field := func(k int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
		}
		ests = append(ests, model.Estimate{
			Worker: i, UnitComm: field(0), CommLatency: field(1), UnitComp: field(2), CompLatency: field(3),
		})
	}
	return ests
}

// FuzzUMRSearchMatchesReference is the same comparison on inputs the
// fuzzer shapes: load, granularity, planned fraction, and the workers'
// estimates as estimateBytes writes them.
func FuzzUMRSearchMatchesReference(f *testing.F) {
	src := rng.New(7)
	for i := 0; i < 32; i++ {
		p, load := searchCase(src)
		f.Add(p.TotalLoad, p.MinChunk, load/p.TotalLoad, estimateBytes(p.Workers))
	}
	f.Fuzz(func(t *testing.T, total, minChunk, fraction float64, raw []byte) {
		p := Plan{TotalLoad: total, MinChunk: minChunk, Workers: estimatesFromBytes(raw, 32)}
		// The planner's contract covers finite inputs; what Validate lets
		// through beyond them (NaN and +Inf costs) is the open "total
		// planners" roadmap item, not this search's.
		finite := func(vs ...float64) bool {
			for _, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
			return true
		}
		load := total * fraction
		if !finite(total, minChunk, load) {
			t.Skip()
		}
		for _, e := range p.Workers {
			if !finite(e.UnitComm, e.CommLatency, e.UnitComp, e.CompLatency) {
				t.Skip()
			}
		}
		if p.Validate() != nil || load <= 0 || load > total*(1+1e-9) {
			t.Skip()
		}
		checkUMRSearchMatchesReference(t, new(refScratch), new(umrScratch), p, load)
	})
}

// TestUMRScratchRepeatsOnlyTheSameInput covers the one-entry memo: a
// scratch replays its search only for the bit-identical input, whatever
// it planned in between gives the cold answer, and nothing it returns
// shares storage with it.
func TestUMRScratchRepeatsOnlyTheSameInput(t *testing.T) {
	a := Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}
	b := Plan{TotalLoad: 96000, MinChunk: 1, Workers: das2Estimates(7)}
	cold := func(p Plan, load float64) umrResult {
		return result(new(umrScratch).plan(p, load))
	}

	t.Run("A B A equals three cold plans", func(t *testing.T) {
		var sc umrScratch
		for i, p := range []Plan{a, b, a, a} {
			got, want := result(sc.plan(p, p.TotalLoad)), cold(p, p.TotalLoad)
			if want.err != nil {
				t.Fatal(want.err)
			}
			if diff := sameUMRPlan(got, want); diff != "" {
				t.Errorf("plan %d: %s", i, diff)
			}
		}
	})

	t.Run("any changed bit misses", func(t *testing.T) {
		var sc umrScratch
		if _, _, _, err := sc.plan(a, a.TotalLoad); err != nil {
			t.Fatal(err)
		}
		if !sc.holds(a, a.TotalLoad) {
			t.Fatal("scratch does not hold the input it just planned")
		}
		ulp := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
		changed := func(edit func(e *model.Estimate)) Plan {
			p := a
			p.Workers = append([]model.Estimate(nil), a.Workers...)
			edit(&p.Workers[5])
			return p
		}
		minChunk := a
		minChunk.MinChunk = ulp(a.MinChunk)
		for name, c := range map[string]struct {
			p    Plan
			load float64
		}{
			"load":         {a, math.Nextafter(a.TotalLoad, 0)},
			"min chunk":    {minChunk, a.TotalLoad},
			"unit comm":    {changed(func(e *model.Estimate) { e.UnitComm = ulp(e.UnitComm) }), a.TotalLoad},
			"comm latency": {changed(func(e *model.Estimate) { e.CommLatency = ulp(e.CommLatency) }), a.TotalLoad},
			"unit comp":    {changed(func(e *model.Estimate) { e.UnitComp = ulp(e.UnitComp) }), a.TotalLoad},
			"comp latency": {changed(func(e *model.Estimate) { e.CompLatency = ulp(e.CompLatency) }), a.TotalLoad},
			"worker count": {Plan{TotalLoad: a.TotalLoad, MinChunk: a.MinChunk, Workers: a.Workers[:15]}, a.TotalLoad},
		} {
			if sc.holds(c.p, c.load) {
				t.Errorf("%s changed by one ulp still hits", name)
			}
		}
		// +0 and −0 are different inputs to a bit-exact function.
		zero := changed(func(e *model.Estimate) { e.CommLatency = 0 })
		negZero := changed(func(e *model.Estimate) { e.CommLatency = math.Copysign(0, -1) })
		if _, _, _, err := sc.plan(zero, zero.TotalLoad); err != nil {
			t.Fatal(err)
		}
		if sc.holds(negZero, negZero.TotalLoad) {
			t.Error("-0 latency hits the +0 entry")
		}
	})

	t.Run("a miss plans the new input", func(t *testing.T) {
		var sc umrScratch
		if _, _, _, err := sc.plan(a, a.TotalLoad); err != nil {
			t.Fatal(err)
		}
		got, want := result(sc.plan(a, 0.8*a.TotalLoad)), cold(a, 0.8*a.TotalLoad)
		if diff := sameUMRPlan(got, want); diff != "" {
			t.Errorf("80%% plan after a 100%% plan: %s", diff)
		}
	})

	t.Run("nothing is shared with the caller", func(t *testing.T) {
		var sc umrScratch
		first, _, _, err := sc.plan(a, a.TotalLoad)
		if err != nil {
			t.Fatal(err)
		}
		want := cold(a, a.TotalLoad)
		for i := range first {
			first[i] = Decision{Worker: -1, Size: math.NaN()}
		}
		if diff := sameUMRPlan(result(sc.plan(a, a.TotalLoad)), want); diff != "" {
			t.Errorf("re-plan after the caller scribbled over the first result: %s", diff)
		}
		// Nor is the caller's estimate slice the key: reusing it for other
		// estimates must be seen as another input.
		reused := Plan{TotalLoad: a.TotalLoad, MinChunk: a.MinChunk, Workers: das2Estimates(16)}
		if _, _, _, err := sc.plan(reused, reused.TotalLoad); err != nil {
			t.Fatal(err)
		}
		reused.Workers[3].UnitComp *= 2
		if sc.holds(reused, reused.TotalLoad) {
			t.Fatal("the scratch keys on the caller's slice, not on a copy")
		}
		if diff := sameUMRPlan(result(sc.plan(reused, reused.TotalLoad)), cold(reused, reused.TotalLoad)); diff != "" {
			t.Errorf("plan over the caller's edited estimates: %s", diff)
		}
	})

	t.Run("an infeasible input repeats its one round", func(t *testing.T) {
		// One worker's start-up latency outlasts any round the other two
		// would run: its chunk is negative at every M, so the plan is one
		// round over the other two.
		p := Plan{TotalLoad: 96, MinChunk: 1, Workers: homogeneousEstimates(3, 0.01, 0, 0.1, 0)}
		p.Workers[2].CompLatency = 1000
		var sc umrScratch
		first := result(sc.plan(p, p.TotalLoad))
		if defect := oneRoundDefect(first, p, p.TotalLoad); defect != "" {
			t.Fatal(defect)
		}
		if len(first.seq) != 2 || first.seq[0].Worker == 2 || first.seq[1].Worker == 2 {
			t.Errorf("round %v does not leave out the worker that cannot help", first.seq)
		}
		if diff := sameUMRPlan(result(sc.plan(p, p.TotalLoad)), first); diff != "" {
			t.Errorf("second plan from the same scratch: %s", diff)
		}
	})
}

// TestUMRConcurrentPlanners runs PlanUMRRounds from several goroutines on
// different inputs at once (the parallel experiment runner does); under
// -race it checks that pooled scratches are never shared, and everywhere
// that a scratch handed from one input to another plans the new one.
func TestUMRConcurrentPlanners(t *testing.T) {
	plans := []Plan{
		{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)},
		{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(8)},
		{TotalLoad: 96000, MinChunk: 1, Workers: das2Estimates(5)},
		{TotalLoad: 10000, MinChunk: 0, Workers: homogeneousEstimates(8, 0.5, 1, 0.4, 0.1)},
	}
	want := make([]umrResult, len(plans))
	for i, p := range plans {
		if want[i] = result(new(umrScratch).plan(p, p.TotalLoad)); want[i].err != nil {
			t.Fatal(want[i].err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i*(1+g%3)) % len(plans)
				if diff := sameUMRPlan(result(PlanUMRRounds(plans[k], plans[k].TotalLoad)), want[k]); diff != "" {
					t.Errorf("goroutine %d, plan %d: %s", g, k, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestUMRPredictionIsNotUnimodal pins the negative result that keeps the
// search a full scan. On this two-worker platform (found by sweeping
// 200 000 small platforms, 0.9% of which behave this way; none of the
// paper's do) the predicted makespan falls to a local minimum at M = 3,
// rises for twelve round counts in a row (234.1 s to 237.2 s), and then
// drops below that minimum at M = 16 (232.2 s). Any rule that stops the
// search once the prediction has passed its minimum returns M = 3 here
// and must fail this test.
func TestUMRPredictionIsNotUnimodal(t *testing.T) {
	p := Plan{TotalLoad: 1000, MinChunk: 1, Workers: []model.Estimate{
		{Worker: 0, UnitComm: 0.05, CommLatency: 10, UnitComp: 2, CompLatency: 2},
		{Worker: 1, UnitComm: 0.01, CommLatency: 0.5, UnitComp: 0.25, CompLatency: 0},
	}}
	const localMin, globalMin = 3, 16
	var sc umrScratch
	seq, roundLen, chosen, err := sc.plan(p, p.TotalLoad)
	if err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, globalMin+2)
	for m := 1; m < len(pred); m++ {
		var ok bool
		if pred[m], ok = sc.candidate(m, nil); !ok {
			t.Fatalf("M = %d is infeasible; the counter-example needs every M up to %d", m, len(pred)-1)
		}
	}
	if !(pred[localMin] < pred[localMin-1] && pred[localMin] < pred[localMin+1]) {
		t.Errorf("M = %d is not a local minimum: %.3f, %.3f, %.3f", localMin, pred[localMin-1], pred[localMin], pred[localMin+1])
	}
	for m := localMin + 1; m < globalMin; m++ {
		if !(pred[m] > pred[m-1]) {
			t.Errorf("prediction does not rise from M = %d to %d: %.3f, %.3f", m-1, m, pred[m-1], pred[m])
		}
	}
	if !(pred[globalMin] < pred[localMin]) {
		t.Errorf("M = %d (%.3f) does not beat the first local minimum M = %d (%.3f)", globalMin, pred[globalMin], localMin, pred[localMin])
	}
	if len(seq)/roundLen != globalMin || chosen != pred[globalMin] {
		t.Errorf("planned %d rounds predicting %.3f; want the global minimum, %d rounds predicting %.3f (an early stop gives %d)",
			len(seq)/roundLen, chosen, globalMin, pred[globalMin], localMin)
	}
}

// TestUMRLowerBoundHolds checks the bound the round search stops at: on
// the inputs of TestUMRSearchMatchesReference, every feasible candidate
// predicts a makespan no smaller than lowerBound, and the bound never
// decreases in M. Either failing would let the search stop before the
// winner.
func TestUMRLowerBoundHolds(t *testing.T) {
	cases := 10000
	if testing.Short() || raceflag.Enabled {
		cases = 2000
	}
	src := rng.New(1000)
	var sc umrScratch
	checked := 0
	for i := 0; i < cases; i++ {
		p, load := searchCase(src)
		sc.prepare(p, load)
		prev := math.Inf(-1)
		for m := 1; m < sc.limit; m++ {
			bound := sc.lowerBound(m)
			if bound < prev {
				t.Fatalf("M = %d: bound %v below M−1's %v\nload %v of %+v", m, bound, prev, load, p)
			}
			prev = bound
			if pred, ok := sc.candidate(m, nil); ok {
				checked++
				if pred < bound {
					t.Fatalf("M = %d: predicted %v below the bound %v\nload %v of %+v", m, pred, bound, load, p)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no feasible candidate checked")
	}
}

// TestUMRDriftGuardRejectsOverdispatch pins candidate's lastTotal+drift
// guard. On this input the first M−1 rounds of some candidates already
// dispatch more than the load, by less than the lower-bound rejection's
// slack, so only the guard refuses them: without it, absorbing the drift
// scales the last round negative and the candidate passes as feasible.
func TestUMRDriftGuardRejectsOverdispatch(t *testing.T) {
	p := Plan{TotalLoad: 1.366902e+06, Workers: []model.Estimate{
		{Worker: 0, CommLatency: 1.2099213928407809e-52, UnitComp: 1.4934543479128755e-27},
		{Worker: 1, UnitComm: 8.461950942503583e-23, CommLatency: 7.920711607013656e-76,
			UnitComp: 9.483895332488019e-101, CompLatency: 1.0872310071285504e-90},
	}}
	var ref refScratch
	var sc umrScratch
	checkUMRSearchMatchesReference(t, &ref, &sc, p, p.TotalLoad)
	out := make([]Decision, maxUMRRounds*len(p.Workers))
	for m := 1; m < sc.limit; m++ {
		sched := out[:m*len(p.Workers)]
		if _, ok := sc.candidate(m, sched); !ok {
			continue
		}
		for _, d := range sched {
			if d.Size < 0 {
				t.Fatalf("M = %d is feasible with a chunk of %v", m, d.Size)
			}
		}
	}
}

// TestUMRPlanAllocatesOnlyItsDecisions pins what a UMR plan costs: a
// searched plan and a repeated one each allocate the returned decision
// slice and nothing else. The search works in the pooled scratch, sorts
// the workers there in place, and the plan is one flat slice with no
// per-round headers; UMR.Plan plays that slice as it is.
func TestUMRPlanAllocatesOnlyItsDecisions(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; counts only hold in normal builds")
	}
	// Heterogeneous speeds, so the fastest-first sort has work to do.
	a := Plan{TotalLoad: 240000, MinChunk: 10, Workers: das2Estimates(16)}
	for i := range a.Workers {
		a.Workers[i].UnitComp *= 1 + float64((7*i)%5)/4
	}
	b := Plan{TotalLoad: 96000, MinChunk: 1, Workers: das2Estimates(7)}
	plan := func(p Plan) {
		if _, _, _, err := PlanUMRRounds(p, p.TotalLoad); err != nil {
			t.Fatal(err)
		}
	}
	// Alternating two inputs misses the scratch's one-entry memo on
	// every call, so each plan searches.
	if searched := testing.AllocsPerRun(20, func() { plan(a); plan(b) }) / 2; searched != 1 {
		t.Errorf("a searched plan allocated %v times; want 1 (its decisions)", searched)
	}
	if repeated := testing.AllocsPerRun(20, func() { plan(a) }); repeated != 1 {
		t.Errorf("a repeated plan allocated %v times; want 1 (its decisions)", repeated)
	}
	u := NewUMR()
	if played := testing.AllocsPerRun(20, func() {
		if err := u.Plan(a); err != nil {
			t.Fatal(err)
		}
	}); played != 1 {
		t.Errorf("UMR.Plan allocated %v times; want 1 (the plan's decisions)", played)
	}
}
