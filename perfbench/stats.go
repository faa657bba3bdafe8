package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must
// have beyond it: a p99 over fewer than a thousand samples is a guess
// at the maximum, not a percentile.
const minBeyond = 10

// tailCandidates are the percentiles a tail is reported at, highest
// first; tail picks the first one the sample count supports.
var tailCandidates = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// dist is a sorted copy of a sample set.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// quantile returns the nearest-rank q-quantile: the smallest sample
// with at least q·n samples at or below it. NaN for an empty set.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

// beyond counts the samples of n ranked above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQ returns the highest candidate percentile with at least
// minBeyond samples beyond it among n samples. With too few samples
// for any tail it returns the median: the maximum of a handful of
// samples is not a tail, and no figure swings more between runs.
func tailQ(n int) float64 {
	for _, c := range tailCandidates {
		if beyond(n, c) >= minBeyond {
			return c
		}
	}
	return 0.5
}

// tail returns the percentile tailQ picks for the sample set and its
// value.
func (d dist) tail() (q, v float64) {
	q = tailQ(len(d))
	return q, d.quantile(q)
}

// tailWindows is how many consecutive sub-windows windowedTail splits
// a run into.
const tailWindows = 8

// windowedTail splits samples, in the order they were taken, into
// tailWindows consecutive windows, reads the same tail percentile in
// each, and returns the median over the windows. A stall of the host
// that spoils one window then moves the figure no more than any other
// window does. With too few samples for a tail in every window it
// falls back to the tail of the whole set.
func windowedTail(xs []float64) (q, v float64) {
	size := len(xs) / tailWindows
	q = tailQ(size)
	if size == 0 || q == 0.5 {
		return newDist(xs).tail()
	}
	per := make([]float64, tailWindows)
	for w := range per {
		per[w] = newDist(xs[w*size : (w+1)*size]).quantile(q)
	}
	return q, newDist(per).median()
}

func (d dist) median() float64 { return d.quantile(0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
