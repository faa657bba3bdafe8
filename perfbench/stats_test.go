package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	d := newDist(seq(10)) // 1..10
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(newDist(nil).quantile(0.5)) {
		t.Error("quantile of an empty set is not NaN")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{
		{1000, 0.99}, // exactly ten beyond p99
		{999, 0.95},  // nine beyond p99: fall back
		{200, 0.95},
		{100, 0.9},
		{40, 0.75},
		{20, 0.5},
		{19, 0.5}, // nothing qualifies: the median
		{1, 0.5},
	} {
		d := newDist(seq(c.n))
		q, v := d.tail()
		if q != c.wantQ {
			t.Errorf("n=%d: tail at q=%v, want %v", c.n, q, c.wantQ)
			continue
		}
		if q > 0.5 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: tail at q=%v has %d samples beyond", c.n, q, beyond(c.n, q))
		}
		if v != d.quantile(q) {
			t.Errorf("n=%d: tail value %v, quantile %v", c.n, v, d.quantile(q))
		}
	}
}

func TestMeanAndMax(t *testing.T) {
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := maxOf([]float64{1, 7, 6}); got != 7 {
		t.Errorf("maxOf = %v, want 7", got)
	}
}

// One spoiled window moves the windowed tail no more than any other.
func TestWindowedTailIgnoresOneStall(t *testing.T) {
	xs := make([]float64, tailWindows*1000)
	for i := range xs {
		xs[i] = float64(i % 1000) // every window holds 0..999
	}
	q, v := windowedTail(xs)
	if q != 0.99 || v != 989 {
		t.Fatalf("windowed tail = p%v %v, want p99 989", q*100, v)
	}
	for i := 0; i < 1000; i++ {
		xs[i] = 1e6 // a stall spoils the first window
	}
	if _, v := windowedTail(xs); v != 989 {
		t.Errorf("one stalled window moved the tail to %v", v)
	}
	if q, _ := windowedTail(xs[:50]); q != 0.75 {
		t.Errorf("50 samples: tail at p%v, want the whole-set p75", q*100)
	}
}
