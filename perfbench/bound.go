package main

import (
	"fmt"
	"math"
	"math/rand"

	"diversecast/internal/baseline"
	"diversecast/internal/core"
	"diversecast/internal/workload"
)

// lowerBound is a lower bound on the grouping cost Σ F_i·Z_i of any
// allocation of db to k channels:
//
//	LB = max((Σ_j √(f_j·z_j))² / k, Σ_j f_j·z_j)
//
// Within a group, Cauchy–Schwarz gives F·Z ≥ (Σ √(f_j z_j))²; across
// k groups it gives Σ_i a_i² ≥ (Σ_i a_i)²/k. Each group's cost also
// contains its own diagonal terms f_j·z_j, which gives the second
// term.
func lowerBound(db *core.Database, k int) float64 {
	var root, diag float64
	for _, it := range db.Items() {
		fz := it.Freq * it.Size
		root += math.Sqrt(fz)
		diag += fz
	}
	return math.Max(root*root/float64(k), diag)
}

// gapTolerance absorbs floating-point rounding when an allocation
// meets the bound exactly (one channel, or one item per channel).
const gapTolerance = 1e-9

// checkAllocation verifies one allocator output against its instance:
// structurally valid and no cheaper than the lower bound. It returns
// the gap Cost/LB.
func checkAllocation(a *core.Allocation, k int, lb float64) (float64, error) {
	if a.K() != k {
		return 0, fmt.Errorf("allocation has %d channels, want %d", a.K(), k)
	}
	if err := a.Validate(); err != nil {
		return 0, fmt.Errorf("invalid allocation: %w", err)
	}
	gap := core.Cost(a) / lb
	if !(gap >= 1-gapTolerance) {
		return gap, fmt.Errorf("cost below the lower bound: gap %v", gap)
	}
	return gap, nil
}

// paperOptimum is the local-optimal cost of the paper's Table 2
// example after DRP and CDS (Table 4(d)), and paperTolerance the
// rounding of the paper's two-decimal figures.
const (
	paperOptimum   = 22.29
	paperTolerance = 0.015
)

// selfCheck validates the bound before any measurement: on small
// seeded instances the bound must not exceed the exhaustive optimum
// and DRP-CDS must land between the two, and the paper's worked
// example must refine to Table 4(d)'s cost.
func selfCheck(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 6; i++ {
		n, k := 6+rng.Intn(4), 2+rng.Intn(2)
		db, err := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: rng.Int63()}.Generate()
		if err != nil {
			return err
		}
		opt, err := baseline.NewExhaustive().Allocate(db, k)
		if err != nil {
			return fmt.Errorf("exhaustive N=%d K=%d: %w", n, k, err)
		}
		lb, best := lowerBound(db, k), core.Cost(opt)
		if lb > best*(1+gapTolerance) {
			return fmt.Errorf("lower bound %v exceeds the exhaustive optimum %v (N=%d K=%d)", lb, best, n, k)
		}
		a, err := core.NewDRPCDS().Allocate(db, k)
		if err != nil {
			return err
		}
		if _, err := checkAllocation(a, k, lb); err != nil {
			return err
		}
		if c := core.Cost(a); c < best*(1-gapTolerance) {
			return fmt.Errorf("DRP-CDS cost %v below the exhaustive optimum %v", c, best)
		}
	}
	db := core.PaperExampleDatabase()
	a, err := core.NewDRPExampleConsistent().Allocate(db, core.PaperExampleK)
	if err != nil {
		return err
	}
	a, err = core.NewCDS().Refine(a)
	if err != nil {
		return err
	}
	if _, err := checkAllocation(a, core.PaperExampleK, lowerBound(db, core.PaperExampleK)); err != nil {
		return fmt.Errorf("paper example: %w", err)
	}
	if c := core.Cost(a); math.Abs(c-paperOptimum) > paperTolerance {
		return fmt.Errorf("paper example refines to cost %.4f, want %.2f", c, paperOptimum)
	}
	return nil
}
