package grid

import (
	"slices"

	"apstdv/internal/rng"
)

// noiseSeeds is how many run seeds a backend keeps noise tapes for. The
// paper's experiments and every sweep run at most ten seeds per cell,
// so a backend reset through a cell's runs finds each seed again.
const noiseSeeds = 16

// noiseDepth is how many pairs each tape holds before it grows on its
// own: the most any worker draws under one seed across all runs of the
// paper's experiments (27, experiment.All() at width 1). Deeper streams
// (hundreds of chunks per worker) grow their tape once and keep it.
const noiseDepth = 27

// noisePair is one accepted Marsaglia polar pair (see rng.Polar):
// u·w is a standard normal draw, so 1 + cv·u·w is the compute-time
// multiplier for any coefficient of variation cv.
type noisePair struct{ u, w float64 }

// noiseTape is one worker's compute-noise stream under one run seed:
// the stream's state after its last recorded pair, the pairs recorded
// so far, and the current run's position in them.
type noiseTape struct {
	src   rng.Source
	pairs []noisePair
	next  int
}

// noiseStore records each worker's compute-noise stream per run seed
// and replays it for every later run on the same seed. Runs with equal
// seeds draw the same stream "comp/i" on worker i whatever their
// algorithm, γ or uncertainty mode, so only the pairs are kept and the
// multiplier is recomputed from them: 1 + cv·u·w is the expression
// rng.Normal evaluates on the same operands, which makes a replayed run
// bit-identical to one that draws afresh.
//
// The seeds form a ring: a seed not held takes the entry filled longest
// ago. The store is one block of noiseSeeds tapes per worker, allocated
// by the first Reset with γ > 0. For n workers it retains at most about
// noiseSeeds·n·(64 + 16·max(noiseDepth, 2·L)) bytes, where L is the most
// pairs any run on the backend drew on one worker (a tape that outgrows
// its noiseDepth pairs grows by append, to about twice its length):
// 124 KiB for the paper's sixteen workers, whose runs never outgrow it.
type noiseStore struct {
	seeds [noiseSeeds]uint64
	// added counts the seeds ever taken in; entry added%noiseSeeds is the
	// next one a new seed replaces.
	added int
	// tapes holds entry e's tape for worker i at e·n + i; cur is the
	// current run's entry.
	tapes []noiseTape
	cur   []noiseTape
}

// reset points the store at seed's tapes for n workers, rewinding each
// to its first pair. A seed not held takes the oldest entry, whose
// tapes are reseeded and emptied (keeping their capacity).
func (s *noiseStore) reset(seed uint64, n int) {
	if s.tapes == nil {
		s.tapes = make([]noiseTape, noiseSeeds*n)
		pairs := make([]noisePair, noiseSeeds*n*noiseDepth)
		for i := range s.tapes {
			s.tapes[i].pairs = pairs[i*noiseDepth : i*noiseDepth : (i+1)*noiseDepth]
		}
	}
	e := slices.Index(s.seeds[:min(s.added, noiseSeeds)], seed)
	fresh := e < 0
	if fresh {
		e = s.added % noiseSeeds
		s.added++
		s.seeds[e] = seed
	}
	s.cur = s.tapes[e*n : (e+1)*n]
	for i := range s.cur {
		t := &s.cur[i]
		t.next = 0
		if fresh {
			t.src.Seed(rng.IndexedStreamSeed(seed, "comp/", i))
			t.pairs = t.pairs[:0]
		}
	}
}

// draw returns worker w's next compute-time multiplier,
// rng.TruncNormal(1, cv, 0.1) of its stream: each pair is replayed from
// the tape, or drawn and recorded once the run has read past its end,
// and a multiplier below 0.1 is rejected for the next pair, at most
// 1000 times before 0.1 itself is returned.
func (s *noiseStore) draw(w int, cv float64) float64 {
	if cv <= 0 {
		return 1
	}
	t := &s.cur[w]
	for i := 0; i < 1000; i++ {
		if t.next == len(t.pairs) {
			u, v := t.src.Polar()
			t.pairs = append(t.pairs, noisePair{u, v})
		}
		p := t.pairs[t.next]
		t.next++
		if x := 1 + cv*p.u*p.w; x >= 0.1 {
			return x
		}
	}
	return 0.1
}
