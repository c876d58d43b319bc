package grid

// Share policies for multi-job co-scheduling. They are pure share
// arithmetic over MultiJobStatus, shared between the simulated world
// (MultiWorld) and the live daemon's co-scheduler, which builds the
// same statuses from its running jobs and installs the vectors on their
// job records. Each policy is work-conserving within subsets: a
// worker's share mass is split only among the active jobs entitled to
// it, and a job's departure hands its mass back to the survivors at the
// next revision.
//
// Policies write into caller-provided rows rather than returning fresh
// vectors, so a revision allocates nothing on the world's event path; a
// policy value may keep internal scratch between calls, which is why
// each concurrent consumer constructs its own (see SharePolicy).

// srptShareFloor is the minimum share an active job keeps on each of
// its workers under SRPT weighting. Pure SRPT drives the longest job's
// share toward zero — starvation, and in the live daemon a deadline
// stretch the retry layer would have to absorb; the floor bounds both.
const srptShareFloor = 0.05

// grow returns s with length n and every element zeroed, growing only
// when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// FairPolicy splits every worker evenly among the active jobs entitled
// to it: processor-sharing across jobs, the natural fairness baseline.
func FairPolicy() SharePolicy {
	var counts []int
	return func(active []MultiJobStatus, workers int, shares [][]float64) {
		counts = grow(counts, workers)
		for _, j := range active {
			for _, w := range j.Workers {
				counts[w]++
			}
		}
		for i, j := range active {
			vec := shares[i]
			for w := range vec {
				vec[w] = 0
			}
			for _, w := range j.Workers {
				vec[w] = 1 / float64(counts[w])
			}
		}
	}
}

// SRPTPolicy weights each worker's split by the active jobs' inverse
// remaining load — shortest-remaining gets the largest share, finishing
// sooner and returning its whole share to the longer jobs — with a
// per-job floor so nothing starves. With equal remaining loads it
// degenerates to FairPolicy.
func SRPTPolicy() SharePolicy {
	var weight, sum []float64
	var counts []int
	return func(active []MultiJobStatus, workers int, shares [][]float64) {
		const epsLoad = 1e-9
		weight = grow(weight, len(active))
		for i, j := range active {
			r := j.Remaining
			if r < epsLoad {
				r = epsLoad
			}
			weight[i] = 1 / r
		}
		sum = grow(sum, workers)
		counts = grow(counts, workers)
		for i, j := range active {
			for _, w := range j.Workers {
				sum[w] += weight[i]
				counts[w]++
			}
		}
		for i, j := range active {
			vec := shares[i]
			for w := range vec {
				vec[w] = 0
			}
			for _, w := range j.Workers {
				// Blend the weighted split with a uniform floor: each of
				// the k entitled jobs keeps at least `floor`, and the
				// rest of the worker follows the SRPT weights. Shares
				// sum to exactly 1 per worker either way.
				floor := srptShareFloor
				if k := counts[w]; floor > 1/float64(k) {
					floor = 1 / float64(k)
				}
				vec[w] = floor + (1-floor*float64(counts[w]))*weight[i]/sum[w]
			}
		}
	}
}
