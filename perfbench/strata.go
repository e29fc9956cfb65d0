package main

import (
	"math"

	"renaming/internal/sim"
)

// Seed-stream labels: every run seed is sim.DeriveSeed(workload seed,
// label | index<<8), so the workloads draw disjoint seed sequences.
const (
	labelCrash uint64 = 1
	labelByz   uint64 = 2
	labelChurn uint64 = 3
	labelTrace uint64 = 4
)

func runSeed(seed int64, label uint64, i int) int64 {
	return sim.DeriveSeed(seed, label|uint64(i)<<8)
}

// maxCandidates bounds the seeds a stratified list may examine. Each
// window holds a few percent of the probability mass, so running out is
// vanishingly unlikely unless the covariate's distribution has changed;
// the list then fails loudly rather than silently changing the mix.
const maxCandidates = 512

// stratifier builds a seed list with a fixed mix of a covariate that
// sets the run's cost. The covariate's distribution is cut into
// equal-probability strata, and the list takes the first `per`
// candidates falling into the middle half of each stratum (between its
// (j+¼)/strata and (j+¾)/strata quantiles), so every list covers the
// whole distribution in the same proportions.
type stratifier struct {
	windows [][2]int
	open    []int
}

// newStratifier takes the covariate's probability mass indexed by
// value + offset.
func newStratifier(mass []float64, offset, strata, per int) *stratifier {
	quantile := func(q float64) int {
		acc := 0.0
		for i, m := range mass {
			if acc += m; acc >= q {
				return i - offset
			}
		}
		return len(mass) - 1 - offset
	}
	s := &stratifier{}
	for j := 0; j < strata; j++ {
		s.windows = append(s.windows, [2]int{
			quantile((float64(j) + 0.25) / float64(strata)),
			quantile((float64(j) + 0.75) / float64(strata)),
		})
		s.open = append(s.open, per)
	}
	return s
}

// take claims a slot of the first window holding x that still has one.
func (s *stratifier) take(x int) bool {
	for j, w := range s.windows {
		if w[0] <= x && x <= w[1] && s.open[j] > 0 {
			s.open[j]--
			return true
		}
	}
	return false
}

func (s *stratifier) full() bool {
	for _, k := range s.open {
		if k > 0 {
			return false
		}
	}
	return true
}

func binomialPMF(n int, p float64) []float64 {
	pmf := make([]float64, n+1)
	pmf[0] = math.Pow(1-p, float64(n))
	for k := 0; k < n; k++ {
		pmf[k+1] = pmf[k] * float64(n-k) / float64(k+1) * p / (1 - p)
	}
	return pmf
}
