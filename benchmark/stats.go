package main

import (
	"math"
	"sort"
)

// samples is an exact sample set: every statistic below is read off the
// sorted values themselves, never off a bucketed histogram, so two
// different sets can only share a percentile if they share the order
// statistic it names (ROADMAP item 1: loadgen.DefaultLatencyBounds
// turned p50/p95/p99 into constants of the bucket they fell in).
type samples struct {
	vals   []float64
	sorted bool
}

func (s *samples) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

func (s *samples) addN(v float64, n int) {
	for i := 0; i < n; i++ {
		s.vals = append(s.vals, v)
	}
	s.sorted = false
}

func (s *samples) count() int { return len(s.vals) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1): the
// smallest sample with at least a fraction q of the set at or below it.
// It is always one of the samples. An empty set yields NaN.
func (s *samples) percentile(q float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	rank := int(math.Ceil(q * float64(len(s.vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.vals) {
		rank = len(s.vals)
	}
	return s.vals[rank-1]
}

// beyond counts the samples strictly above the q-quantile's rank — the
// evidence behind a tail percentile (ten are required to report one).
func (s *samples) beyond(q float64) int {
	rank := int(math.Ceil(q * float64(len(s.vals))))
	if rank > len(s.vals) {
		rank = len(s.vals)
	}
	return len(s.vals) - rank
}

// median is the midpoint order statistic (mean of the two middle
// samples for an even count).
func (s *samples) median() float64 {
	n := len(s.vals)
	if n == 0 {
		return math.NaN()
	}
	s.sort()
	if n%2 == 1 {
		return s.vals[n/2]
	}
	return (s.vals[n/2-1] + s.vals[n/2]) / 2
}

func (s *samples) mean() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// quietRounds picks the rounds a closed-loop workload takes its timings
// from. vals holds the rounds' wall times in the order they ran, whole
// cycles of n rounds where a round's work depends on its position in a
// repeating cycle (n = 1: every round does like work). The result is
// the indices, at each position of the cycle, of the fastest quarter of
// the rounds that ran there (rounded up).
//
// It exists because the host this benchmark runs on slows everything
// down by a factor of 1.5–2 for seconds at a time, between a third and
// two thirds of the time: interference only ever adds time, so the
// fastest quarter at each position is what the host left alone, and a
// mean over it weighs every position of the cycle equally. A median over
// all rounds moves with the share of the run the host disturbed — and on
// a cycle it sits wherever the cycle's profile crosses its middle. A
// quarter, not the minimum, so that the value does not fall as a run
// gets more rounds.
func quietRounds(vals []float64, n int) []int {
	at := make([][]int, n)
	for i := range vals {
		at[i%n] = append(at[i%n], i)
	}
	var kept []int
	for _, idx := range at {
		sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
		kept = append(kept, idx[:(len(idx)+3)/4]...)
	}
	return kept
}

func (s *samples) max() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// quartiles returns (Q1, Q2, Q3) by the exclusive method — position
// q·(n+1) with linear interpolation between neighbouring order
// statistics — which is what Python's statistics.quantiles(v, n=4)
// computes, so the spread this program prints is the spread the
// benchmark driver checks. Fewer than two samples yield the sample (or
// NaN) three times.
func (s *samples) quartiles() (q1, q2, q3 float64) {
	n := len(s.vals)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s.sort()
	if n == 1 {
		return s.vals[0], s.vals[0], s.vals[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s.vals[j-1] + frac*(s.vals[j]-s.vals[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func (s *samples) spread() float64 {
	q1, q2, q3 := s.quartiles()
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
