package core

import (
	"testing"

	"diversecast/internal/alloctest"
)

// The gate tests below bind every //diverselint:hotpath root in this
// package to testing.AllocsPerRun: the static passes prove no
// allocation site is reachable from these roots, and these tests
// prove the compiled code agrees.
//
// The selectors are driven with a synthetic ping-pong: one item moves
// to the next group round-robin, the two touched groups' aggregates
// are reconciled exactly as refine does, and the selector is
// notified. The moves are not cost-reducing — allocation behavior is
// what is measured — but the invariant the selectors rely on (agg
// bit-exact with the allocation at applied time) holds at every step.

// pingPong returns a closure performing one synthetic refine
// iteration against sel.
func pingPong(cur *Allocation, agg []GroupAgg, sel moveSelector) func() {
	g := cur.ChannelOf(0)
	k := len(agg)
	return func() {
		h := (g + 1) % k
		cur.move(0, h)
		reconcileGroup(cur, agg, g)
		reconcileGroup(cur, agg, h)
		sel.applied(Move{Pos: 0, From: g, To: h})
		g = h
	}
}

func TestHotPathContractsAllocFree(t *testing.T) {
	db := randomDatabase(t, 11, 96)
	base := randomAllocation(t, db, 6, 7)

	t.Run("reconcileGroup", func(t *testing.T) {
		cur := base.Clone()
		agg := cur.Aggregates()
		alloctest.MustZeroAllocs(t, "reconcileGroup", 2, func() {
			reconcileGroup(cur, agg, 0)
			reconcileGroup(cur, agg, 1)
		})
	})

	t.Run("naiveSelector.next", func(t *testing.T) {
		cur := base.Clone()
		agg := cur.Aggregates()
		sel := &naiveSelector{cur: cur, agg: agg}
		alloctest.MustZeroAllocs(t, "naiveSelector.next", 2, func() {
			sel.next()
		})
	})

	t.Run("incrementalSelector", func(t *testing.T) {
		cur := base.Clone()
		agg := cur.Aggregates()
		tables := acquireCDSTables(cur.db.Len(), len(agg))
		defer releaseCDSTables(tables)
		sel := newIncrementalSelector(cur, agg, tables)
		alloctest.MustZeroAllocs(t, "incrementalSelector.next", 2, func() {
			sel.next()
		})
		alloctest.MustZeroAllocs(t, "incrementalSelector.applied", 2, pingPong(cur, agg, sel))
	})

	t.Run("batchedSelector.next", func(t *testing.T) {
		cur := base.Clone()
		agg := cur.Aggregates()
		tables := acquireCDSTables(cur.db.Len(), len(agg))
		defer releaseCDSTables(tables)
		sel := newBatchedSelector(cur, agg, tables, 1, 4, 1e-12, false)
		// Repeated next() calls alternate between draining the pending
		// batch and assembling a fresh one from the per-group
		// champions, so both shapes — the pop and the sort-and-filter
		// assembly — are inside the measurement window.
		alloctest.MustZeroAllocs(t, "batchedSelector.next", 8, func() {
			sel.next()
		})
	})

	t.Run("batchedSelector.applied", func(t *testing.T) {
		cur := base.Clone()
		agg := cur.Aggregates()
		tables := acquireCDSTables(cur.db.Len(), len(agg))
		defer releaseCDSTables(tables)
		sel := newBatchedSelector(cur, agg, tables, 1, 4, 1e-12, false)
		// With no pending batch in flight, every applied call runs the
		// full end-of-batch repair — the most allocation-prone path
		// the batched engine has.
		alloctest.MustZeroAllocs(t, "batchedSelector.applied+repair", 2, pingPong(cur, agg, sel))
	})

	t.Run("parallelSelector", func(t *testing.T) {
		cur := base.Clone()
		agg := cur.Aggregates()
		tables := acquireCDSTables(cur.db.Len(), len(agg))
		defer releaseCDSTables(tables)
		// workers=1 pins the serial delegation path: the zero-alloc
		// contract covers it, while the sharded path's W spawns and
		// closure headers are the audited suppressions in
		// cds_parallel.go.
		sel := newParallelSelector(cur, agg, tables, 1, false)
		alloctest.MustZeroAllocs(t, "parallelSelector.applied", 2, pingPong(cur, agg, sel))
	})
}
