package main

import (
	"math"
	"math/rand"
	"testing"

	"diversecast/internal/core"
)

func TestLowerBoundHandComputed(t *testing.T) {
	// f·z = 4, 1, 1: Σ√(fz) = 4, so the first term is 16/K.
	db := core.MustNewDatabase([]core.Item{
		{ID: 1, Freq: 1, Size: 4},
		{ID: 2, Freq: 1, Size: 1},
		{ID: 3, Freq: 0.25, Size: 4},
	})
	for _, c := range []struct{ k, want float64 }{
		{1, 16},  // (Σ√fz)² / 1
		{2, 8},   // 16/2 = 8 > Σfz = 6
		{3, 6.0}, // 16/3 < Σfz = 6
	} {
		if got := lowerBound(db, int(c.k)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("K=%v: LB = %v, want %v", c.k, got, c.want)
		}
	}
}

// No random allocation beats the bound, and one item per channel meets
// it exactly.
func TestLowerBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		items := make([]core.Item, n)
		for i := range items {
			items[i] = core.Item{ID: i + 1, Freq: rng.Float64() + 0.01, Size: math.Pow(10, 2*rng.Float64())}
		}
		db := core.MustNewDatabase(items)
		k := 1 + rng.Intn(n)
		channel := make([]int, n)
		for i := range channel {
			channel[i] = rng.Intn(k)
		}
		a, err := core.NewAllocation(db, k, channel)
		if err != nil {
			t.Fatal(err)
		}
		if gap, err := checkAllocation(a, k, lowerBound(db, k)); err != nil || gap < 1-gapTolerance {
			t.Fatalf("random allocation below the bound: gap %v, %v", gap, err)
		}
		each := make([]int, n)
		for i := range each {
			each[i] = i
		}
		own, _ := core.NewAllocation(db, n, each)
		if gap, err := checkAllocation(own, n, lowerBound(db, n)); err != nil || math.Abs(gap-1) > 1e-9 {
			t.Fatalf("one item per channel: gap %v, %v; want exactly 1", gap, err)
		}
	}
}

// On one channel Cauchy–Schwarz is tight exactly when sizes are
// proportional to frequencies.
func TestLowerBoundOneChannel(t *testing.T) {
	items := make([]core.Item, 5)
	for i := range items {
		f := float64(i + 1)
		items[i] = core.Item{ID: i + 1, Freq: f, Size: 3 * f}
	}
	db := core.MustNewDatabase(items)
	one, err := core.NewAllocation(db, 1, make([]int, len(items)))
	if err != nil {
		t.Fatal(err)
	}
	if gap, err := checkAllocation(one, 1, lowerBound(db, 1)); err != nil || math.Abs(gap-1) > 1e-9 {
		t.Fatalf("proportional sizes on one channel: gap %v, %v; want exactly 1", gap, err)
	}
}

func TestCheckAllocationRejects(t *testing.T) {
	db := core.PaperExampleDatabase()
	a, err := core.NewDRPCDS().Allocate(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkAllocation(a, 4, lowerBound(db, 4)); err == nil {
		t.Error("wrong channel count accepted")
	}
	if _, err := checkAllocation(a, 5, 2*core.Cost(a)); err == nil {
		t.Error("cost below a claimed bound accepted")
	}
	if gap, err := checkAllocation(a, 5, lowerBound(db, 5)); err != nil || gap < 1 {
		t.Errorf("paper example: gap %v, %v", gap, err)
	}
}

func TestSelfCheck(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if err := selfCheck(seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
