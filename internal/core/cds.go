package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"diversecast/internal/obs/trace"
)

// Trace span names emitted by CDS. Snake_case per the obsnames
// convention; constants so the analyzer can see them.
const (
	spanCDSRefine = "cds_refine"
	spanCDSMove   = "cds_move"
)

// CDS is the paper's Cost-Diminishing Selection mechanism (Section
// 3.2): a steepest-descent local search over single-item moves.
//
// Each iteration evaluates, for every item d_x currently in group D_p
// and every destination group D_q ≠ D_p, the closed-form cost reduction
// of Eq. (4),
//
//	Δc = f_x(Z_p − Z_q) + z_x(F_p − F_q) − 2 f_x z_x,
//
// applies the move with the maximum strictly positive Δc, and repeats
// until no move reduces the cost — the local optimum. The naive
// strategy pays O(K·N) move evaluations per applied move (within the
// paper's stated O(K²N) bound); the incremental strategy exploits
// that a move only changes two groups' aggregates to reselect in
// O(N + (|D_p|+|D_q|+R)·K), where R is the number of items whose
// cached best destination AND cached runner-up are both invalidated
// by the move (see DESIGN.md §2). Both strategies select bit-for-bit
// identical moves.
type CDS struct {
	// MaxMoves bounds the number of applied moves; 0 means no bound
	// beyond Epsilon-driven termination. Cost strictly decreases by
	// more than Epsilon per move and is bounded below by zero, so
	// termination is guaranteed either way.
	MaxMoves int
	// Epsilon is the minimum Δc for a move to be applied, guarding
	// against floating-point non-termination. Zero selects a default
	// scaled to the problem (1e-12 × initial cost, floored at 1e-300).
	Epsilon float64
	// Strategy picks the move-selection engine. The zero value is
	// StrategyIncremental, which dispatches on the channel count: the
	// full rescan at K ≤ 12, where it is the faster engine, and the
	// candidate tables above. The differential trace tests pin every
	// engine to identical output, so the dispatch never changes a move.
	Strategy CDSStrategy
	// Workers bounds the sweep worker pool of StrategyParallel: 0 uses
	// GOMAXPROCS, 1 forces the serial path, larger values shard the
	// candidate sweeps across that many goroutines. The selected moves
	// are bit-for-bit identical at any width — sharding only changes
	// who evaluates which item, never the arithmetic or the canonical
	// reduction order. Negative is an error; ignored by the other
	// strategies.
	Workers int
	// BatchSize > 1 enables the batched mode of StrategyParallel: up
	// to BatchSize non-conflicting moves — pairwise disjoint
	// {source, destination} group pairs — are selected per sweep and
	// applied back to back before the candidate tables are repaired
	// once. Disjoint moves commute under the Eq. 4 delta algebra, so
	// each batched move's Δc is exactly the value Eq. 4 assigns at its
	// application state; the mode relaxes strict steepest descent only
	// in that moves after the first in a batch are per-group champions
	// rather than global ones. 0 or 1 keeps strict steepest descent.
	// Values > 1 with a strategy other than StrategyParallel are an
	// error.
	BatchSize int

	// Tracer receives one cds_refine span per call with a cds_move
	// child per applied move (item, src/dst groups, the Eq. 4 Δc,
	// strategy tag). nil selects the process-wide trace.Default(),
	// which starts disabled, so the zero value stays probe-free until
	// a daemon enables tracing.
	Tracer *trace.Tracer

	// forceShard (tests only) makes StrategyParallel shard every
	// sweep regardless of the size thresholds, so the small
	// differential workloads exercise the sharded paths that real
	// inputs only hit at scale.
	forceShard bool
}

// cdsScanMaxK is the largest channel count at which StrategyIncremental
// runs the full rescan instead of the candidate tables. Both engines
// apply bit-identical moves, so only their cost differs: from DRP
// starts to the local optimum the tables cost 2.5–4.3× the scan at
// K=4–6, 1.25–1.6× at K=10 and 1.0–1.3× at K=12, break even around
// K=14–16 and win 2–6.5× at K=32–64, across N=60–5000. The crossover
// follows K, not N·K: per applied move the scan evaluates N·(K−1)
// candidates, while the tables pay a per-item merge of roughly
// constant cost plus K-wide rescans of the two touched groups, and the
// merge's branches only amortize once K is large.
// BenchmarkCDSCrossover reproduces the measurement.
const cdsScanMaxK = 12

// CDSStrategy selects how CDS finds the best move each iteration.
// All strategies produce move-for-move identical refinements (same
// tie-break order, same floating-point bits); they differ only in
// work per iteration. The one documented exception is the batched
// mode of StrategyParallel (CDS.BatchSize > 1), which relaxes strict
// steepest descent as described on CDS.BatchSize.
type CDSStrategy int

const (
	// StrategyIncremental (the default) maintains a per-item best-
	// destination candidate table and recomputes only the entries a
	// move can invalidate. At K ≤ 12 channels, where the tables cost
	// more than they save, it runs the naive rescan instead.
	StrategyIncremental CDSStrategy = iota
	// StrategyNaive rescans every (item, destination) pair per
	// iteration — the paper's literal algorithm, kept as the oracle
	// for differential tests and benchmarks.
	StrategyNaive
	// StrategyParallel is StrategyIncremental with the per-move
	// candidate sweeps sharded across a bounded by-index worker pool
	// (CDS.Workers wide) in a fixed reduction order, so the selected
	// move is bit-for-bit identical to the serial engines at any
	// worker count. CDS.BatchSize > 1 additionally applies batches of
	// non-conflicting moves per sweep.
	StrategyParallel
)

// String returns the strategy name ("incremental", "naive" or
// "parallel").
func (s CDSStrategy) String() string {
	switch s {
	case StrategyIncremental:
		return "incremental"
	case StrategyNaive:
		return "naive"
	case StrategyParallel:
		return "parallel"
	default:
		return fmt.Sprintf("CDSStrategy(%d)", int(s))
	}
}

// ParseCDSStrategy maps a strategy name back to its value — the exact
// inverse of String over the three engines — for flag and config
// plumbing.
func ParseCDSStrategy(name string) (CDSStrategy, error) {
	switch name {
	case "incremental":
		return StrategyIncremental, nil
	case "naive":
		return StrategyNaive, nil
	case "parallel":
		return StrategyParallel, nil
	default:
		return 0, fmt.Errorf("core: unknown CDS strategy %q (want incremental, naive or parallel)", name)
	}
}

var _ Refiner = (*CDS)(nil)

// NewCDS returns a CDS refiner with default settings.
func NewCDS() *CDS { return &CDS{} }

// Name implements Refiner.
func (*CDS) Name() string { return "CDS" }

// Move records one applied CDS move for tracing (the paper's Table 4).
type Move struct {
	Pos        int     // database position of the moved item
	From, To   int     // channel indices
	Reduction  float64 // the Δc of Eq. (4), exact at the application state
	CostBefore float64
	CostAfter  float64
	// Batch numbers the sweep batch this move was applied in by the
	// batched mode of StrategyParallel (1-based, in application
	// order); 0 for the strict steepest-descent engines, which apply
	// exactly one move per sweep. The batch-replay tests use it to
	// verify the disjointness and commutation contract.
	Batch int
}

// Refine implements Refiner. The input allocation is not mutated.
func (c *CDS) Refine(a *Allocation) (*Allocation, error) {
	out, _, err := c.refine(a, false)
	return out, err
}

// RefineWithTrace is Refine but also returns every applied move in
// order, used by the paper-table reproduction and by tests.
func (c *CDS) RefineWithTrace(a *Allocation) (*Allocation, []Move, error) {
	return c.refine(a, true)
}

// moveSelector finds the best single-item move for the current
// allocation state. next returns the move with the maximum Δc under
// the canonical scan order (groups by channel index, items by
// database position within the group, destinations by channel index;
// strictly-larger-wins tie-break) and whether any strictly positive
// candidate exists. applied notifies the selector after a move has
// been applied and the aggregates reconciled.
type moveSelector interface {
	next() (Move, bool)
	applied(Move)
	// stats reports the selector's work counters, flushed to obs
	// counters once per refinement.
	stats() selStats
}

// selStats aggregates the per-refinement selector counters.
type selStats struct {
	// scans counts selection sweeps (one per applied move for the
	// strict engines, one per assembled batch for the batched mode).
	scans int64
	// recomputed counts full per-item candidate recomputations.
	recomputed int64
	// parallelSweeps counts candidate sweeps that were actually
	// sharded across the worker pool (small sweeps fall back to the
	// serial path and are not counted).
	parallelSweeps int64
	// batchedMoves counts moves applied by the batched mode.
	batchedMoves int64
}

func (c *CDS) refine(a *Allocation, wantTrace bool) (*Allocation, []Move, error) {
	if err := a.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: CDS input: %w", err)
	}
	cur := a.Clone()
	agg := cur.Aggregates()

	eps := c.Epsilon
	if eps == 0 {
		if init := Cost(cur); init > 0 {
			eps = 1e-12 * init
		} else {
			eps = 1e-300
		}
	}

	if c.Workers < 0 {
		return nil, nil, fmt.Errorf("core: CDS: negative Workers %d", c.Workers)
	}
	if c.BatchSize > 1 && c.Strategy != StrategyParallel {
		return nil, nil, fmt.Errorf("core: CDS: BatchSize %d requires StrategyParallel, not %v", c.BatchSize, c.Strategy)
	}

	var sel moveSelector
	var tables *cdsTables
	// engine is the selector that actually runs: the configured
	// strategy, except where StrategyIncremental resolves to the scan.
	engine := c.Strategy
	switch c.Strategy {
	case StrategyNaive:
		sel = &naiveSelector{cur: cur, agg: agg}
	case StrategyIncremental:
		if len(agg) <= cdsScanMaxK {
			engine = StrategyNaive
			sel = &naiveSelector{cur: cur, agg: agg}
			break
		}
		tables = acquireCDSTables(cur.db.Len(), len(agg))
		sel = newIncrementalSelector(cur, agg, tables)
	case StrategyParallel:
		workers := c.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		tables = acquireCDSTables(cur.db.Len(), len(agg))
		if c.BatchSize > 1 {
			sel = newBatchedSelector(cur, agg, tables, workers, c.BatchSize, eps, c.forceShard)
		} else {
			sel = newParallelSelector(cur, agg, tables, workers, c.forceShard)
		}
	default:
		return nil, nil, fmt.Errorf("core: CDS: unknown strategy %v", c.Strategy)
	}
	if tables != nil {
		defer releaseCDSTables(tables)
	}

	start := timeNow()
	var moves []Move
	applied := 0
	cost := Cost(cur)

	tr := c.Tracer
	if tr == nil {
		tr = trace.Default()
	}
	var span trace.Span
	var stratTag trace.Attr
	if tr.Enabled() {
		strat := c.Strategy.String()
		stratTag = trace.Str("strategy", strat)
		span = tr.Start(spanCDSRefine, stratTag,
			trace.Str("engine", engine.String()),
			trace.Int("n", int64(cur.db.Len())), trace.Int("k", int64(cur.k)),
			trace.Float("cost", cost))
	}

	for {
		// Bound on applied moves, not trace length: Refine (no trace)
		// must honor MaxMoves too.
		if c.MaxMoves > 0 && applied >= c.MaxMoves {
			break
		}

		best, found := sel.next()
		if !found || best.Reduction <= eps {
			break
		}

		// The move span covers applying the move, reconciling the two
		// touched groups, and the selector's candidate maintenance —
		// the full per-iteration cost of the strategy in use.
		var mv trace.Span
		if span.Active() {
			if best.Batch > 0 {
				mv = span.Child(spanCDSMove,
					trace.Int("pos", int64(best.Pos)),
					trace.Int("src", int64(best.From)), trace.Int("dst", int64(best.To)),
					trace.Float("delta", best.Reduction),
					trace.Int("batch", int64(best.Batch)),
					stratTag)
			} else {
				mv = span.Child(spanCDSMove,
					trace.Int("pos", int64(best.Pos)),
					trace.Int("src", int64(best.From)), trace.Int("dst", int64(best.To)),
					trace.Float("delta", best.Reduction),
					stratTag)
			}
		}

		cur.move(best.Pos, best.To)
		// Reconcile instead of tracking incrementally: rebuild the two
		// touched groups from the allocation in the same accumulation
		// order Aggregates uses (ascending position within the group).
		// Untouched groups were exact before the move, so by induction
		// agg stays bit-for-bit equal to a fresh Aggregates() call, and
		// the trace's CostBefore/CostAfter stay exactly Cost(cur)
		// instead of drifting away from it (one subtraction at a time)
		// over long refinements. O(|D_p|+|D_q|) per applied move via
		// the per-channel position lists.
		reconcileGroup(cur, agg, best.From)
		reconcileGroup(cur, agg, best.To)
		var newCost float64
		for _, g := range agg {
			newCost += g.Cost()
		}
		sel.applied(best)
		if mv.Active() {
			mv.End(trace.Float("cost_after", newCost))
		}

		applied++
		if wantTrace {
			best.CostBefore = cost
			best.CostAfter = newCost
			//diverselint:ignore loopalloc move-history append runs only when the caller asked for a trace; the no-trace refinement path never reaches it
			moves = append(moves, best)
		}
		cost = newCost
	}
	cdsRefinements.Inc()
	cdsMoves.Add(int64(applied))
	st := sel.stats()
	cdsScans.Add(st.scans)
	cdsCandidatesRecomputed.Add(st.recomputed)
	cdsParallelSweeps.Add(st.parallelSweeps)
	cdsBatchedMoves.Add(st.batchedMoves)
	cdsSeconds.Observe(timeNow().Sub(start).Seconds())
	if span.Active() {
		span.End(trace.Int("moves", int64(applied)), trace.Float("cost_after", cost))
	}
	return cur, moves, nil
}

// reconcileGroup rebuilds agg[g] from the allocation. Accumulating
// over the group's position list in ascending order is the same
// per-group order Aggregates uses, so the result is bit-for-bit what
// a full recomputation would produce.
//
//diverselint:hotpath per-applied-move aggregate reconciliation
func reconcileGroup(cur *Allocation, agg []GroupAgg, g int) {
	db := cur.Database()
	agg[g] = GroupAgg{}
	for _, pos := range cur.ChannelPositions(g) {
		it := db.Item(pos)
		agg[g].F += it.Freq
		agg[g].Z += it.Size
		agg[g].N++
	}
}

// naiveSelector is the paper's literal selection: every (item,
// destination) pair is re-evaluated each iteration. The per-channel
// position lists spare it the former O(K·N) membership filter, but
// the scan itself remains O(K·N) evaluations.
type naiveSelector struct {
	cur   *Allocation
	agg   []GroupAgg
	scans int64
}

//diverselint:hotpath per-selection full rescan, the default engine at K ≤ 12
func (s *naiveSelector) next() (Move, bool) {
	db := s.cur.Database()
	k := s.cur.K()
	s.scans++
	// Scan all (item, destination) pairs in the paper's order —
	// groups by channel index, items by database position within
	// the group, destinations by channel index — keeping only a
	// strictly larger Δc, so the selected move is deterministic.
	best := Move{Reduction: 0}
	found := false
	for p := 0; p < k; p++ {
		for _, pos := range s.cur.ChannelPositions(p) {
			it := db.Item(pos)
			for q := 0; q < k; q++ {
				if q == p {
					continue
				}
				dc := MoveReduction(it, s.agg[p], s.agg[q])
				if dc > best.Reduction {
					best = Move{Pos: pos, From: p, To: q, Reduction: dc}
					found = true
				}
			}
		}
	}
	return best, found
}

func (s *naiveSelector) applied(Move) {}

func (s *naiveSelector) stats() selStats { return selStats{scans: s.scans} }

// cdsCandidate is a (destination channel, Δc) pair under the current
// aggregates. dest is -1 (and dc −Inf) for the "no destination"
// sentinel (K == 1, or the runner-up slot when K == 2).
type cdsCandidate struct {
	dest int
	dc   float64
}

// better reports whether candidate a beats candidate b under the
// canonical CDS order: strictly larger Δc wins, and equal Δc is won
// by the smaller destination index (the naive scan visits
// destinations ascending and keeps only strictly larger values).
// This is the lexicographic strict order on (−dc, dest) — total on
// candidates with distinct destinations and transitive always — so
// the ≻-maximum of any candidate set is exactly the entry the naive
// ascending scan would keep, no matter in which sequence the set is
// merged.
func better(a, b cdsCandidate) bool {
	//diverselint:ignore floateq deliberate exact tie-break: equal Δc must resolve by destination index exactly like the naive ascending scan; an epsilon would select different moves
	if a.dc == b.dc {
		return a.dest < b.dest
	}
	return a.dc > b.dc
}

// The candidate table is one item's cached view of its move
// candidates: up to three exact (destination, Δc) entries in
// ≻-descending order plus a bound pair that dominates every
// destination the entry list does not name. The entries let most
// moves resolve an invalidated best in O(1); the bound is what keeps
// the resolution sound without rescanning. Slots hold (dest −1, Δc
// −Inf) when absent, so a slot never compares equal to a real channel
// index and the merge sweep needs no length field.
//
// Invariants, per item (see DESIGN.md §2):
//   - listed entries are exact: the very float bits MoveReduction
//     produces under the current aggregates, consecutive from the
//     ≻-maximum down;
//   - every destination not named by an entry is ⪯ bound under the
//     better order, and every listed entry is ≻ bound. After a full
//     recompute the bound is the exact 4th-best value.
//
// The layout is hybrid: cdsHot packs exactly the fields the per-move
// merge sweep reads — the bound Δc for the admission test, the best
// Δc for the champion fold, and all four destination ids for the
// staleness test — into one 32-byte record (two per cache line), while
// the runner-up Δc values, needed only on the rare repair paths, live
// in cold side arrays. The sweep is memory-bound at scale, so bytes
// per item per move is the figure of merit.
type cdsHot struct {
	bdc        float64 // bound Δc
	e0dc       float64 // best entry Δc
	d0, d1, d2 int32   // entry destinations, −1 when absent
	bdest      int32   // bound destination, −1 for the −Inf sentinel
}

// cdsDelta holds, for one source group p, the aggregate differences
// of Eq. (4) toward a move's two touched groups F and T:
// zf = Z_p−Z_F, ff = F_p−F_F, zt = Z_p−Z_T, ft = F_p−F_T.
type cdsDelta struct {
	zf, ff, zt, ft float64
}

// cdsItem caches the item constants of Eq. (4): frequency, size, and
// the term 2·fₓ·zₓ computed with exactly the expression MoveReduction
// uses (left-associated 2*f*z), so substituting it reproduces
// MoveReduction's float bits while sparing two multiplies per
// evaluated destination.
type cdsItem struct {
	f, z, tfz float64
}

// cdsTables is the SoA working set shared by the table-driven CDS
// engines (incremental, parallel, batched): the hot per-item records
// and the flat per-group shadows, split by access pattern so the
// per-move sweeps stream exactly the bytes they read. The slices are
// sized once per refinement and the whole struct is recycled through
// a sync.Pool — repeated Allocate/Refine calls at production scale
// stop paying the per-call slice allocations (~56 bytes/item +
// ~64 bytes/group) entirely. Every element is overwritten by the
// selector's initial build before it is read, so recycling cannot
// leak state between refinements.
type cdsTables struct {
	fzt []cdsItem
	// aggZ and aggF shadow agg[q].Z and agg[q].F in flat slices so the
	// hot loops stream 16 bytes per destination instead of the whole
	// GroupAgg; applied refreshes the two touched entries.
	aggZ, aggF []float64
	// chq shadows cur.channel as int32 (applied updates the moved
	// item's entry), halving the sweep's channel-stream bytes.
	chq []int32
	hot []cdsHot
	// e1dc and e2dc are the runner-up entries' Δc (cold).
	e1dc, e2dc []float64
	// delta is per-move scratch: for each group p, the aggregate
	// differences toward the move's two touched groups, hoisted out of
	// the sweep (they are per-(group, move) constants). Hoisting a
	// subexpression does not change its float bits.
	delta []cdsDelta
	// dzs/dfs are per-source-group scratch for scanTop4: the aggregate
	// differences Z_p−Z_q and F_p−F_q toward every destination, filled
	// once per source group and shared by every member's scan. The
	// sharded sweeps treat them as read-only and use per-shard scratch
	// for their own recomputes.
	dzs, dfs []float64
}

var cdsTablesPool = sync.Pool{New: func() any { return new(cdsTables) }}

// growSlice returns s resized to n, reusing capacity when possible.
// Contents are unspecified; callers fully overwrite before reading.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// acquireCDSTables returns a table set sized for n items and k groups,
// recycled from the pool when capacities allow.
func acquireCDSTables(n, k int) *cdsTables {
	t := cdsTablesPool.Get().(*cdsTables)
	t.fzt = growSlice(t.fzt, n)
	t.chq = growSlice(t.chq, n)
	t.hot = growSlice(t.hot, n)
	t.e1dc = growSlice(t.e1dc, n)
	t.e2dc = growSlice(t.e2dc, n)
	t.aggZ = growSlice(t.aggZ, k)
	t.aggF = growSlice(t.aggF, k)
	t.delta = growSlice(t.delta, k)
	t.dzs = growSlice(t.dzs, k)
	t.dfs = growSlice(t.dfs, k)
	return t
}

func releaseCDSTables(t *cdsTables) { cdsTablesPool.Put(t) }

// incrementalSelector maintains the candidate cache. A move D_p → D_q
// only changes agg[p] and agg[q], so after a move: items inside p or
// q recompute over all K destinations, and every other item folds
// just the two freshly evaluated Δc toward p and q into its cached
// entry list (see applied). The depth-3 list absorbs repeated
// invalidations of the same popular destination group — the pattern
// steepest descent produces — so full rescans stay rare.
//
// The selection sweep is folded into the same passes: applied visits
// every item exactly once (touched groups via recompute, the rest via
// the merge loop), so it tracks the global champion as it goes and
// next returns it in O(1).
type incrementalSelector struct {
	*cdsTables
	cur        *Allocation
	agg        []GroupAgg
	champ      Move
	champFound bool
	scans      int64
	recomputed int64
}

// initTables attaches the selector to its allocation and fills every
// table: item constants, aggregate shadows, channel shadow, and the
// per-item candidate records (one delta fill per group shared by its
// members). Shared by all three table-driven engines.
func (s *incrementalSelector) initTables(cur *Allocation, agg []GroupAgg) {
	s.cur, s.agg = cur, agg
	for i, it := range cur.db.items {
		s.fzt[i] = cdsItem{f: it.Freq, z: it.Size, tfz: 2 * it.Freq * it.Size}
	}
	for q, g := range agg {
		s.aggZ[q], s.aggF[q] = g.Z, g.F
	}
	for pos, p := range cur.channel {
		s.chq[pos] = int32(p)
	}
	for p := range agg {
		s.fillDeltas(p)
		for _, pos := range cur.ChannelPositions(p) {
			s.scanTop4(pos)
		}
	}
}

func newIncrementalSelector(cur *Allocation, agg []GroupAgg, t *cdsTables) *incrementalSelector {
	s := &incrementalSelector{cdsTables: t}
	s.initTables(cur, agg)
	// Initial champion sweep; applied keeps it current afterwards.
	champ := Move{Reduction: 0}
	found := false
	for pos, p32 := range s.chq {
		h := &s.hot[pos]
		cd := h.e0dc
		if cd > champ.Reduction {
			champ = Move{Pos: pos, From: int(p32), To: int(h.d0), Reduction: cd}
			found = true
			continue
		}
		//diverselint:ignore floateq deliberate exact tie-break: equal Δc across items must resolve by (channel, position) exactly like the naive scan order
		if found && cd == champ.Reduction && int(p32) < champ.From {
			// Positions ascend in this sweep, so only a strictly
			// smaller channel can steal the tie.
			champ = Move{Pos: pos, From: int(p32), To: int(h.d0), Reduction: cd}
		}
	}
	s.champ, s.champFound = champ, found
	return s
}

// fillDeltasInto loads scratch slices with the aggregate differences
// from source group p toward every destination q: dzs[q] = Z_p−Z_q,
// dfs[q] = F_p−F_q — the exact subexpressions of MoveReduction,
// hoisted so that every member of group p shares one fill. Slot p
// itself is poked to (−Inf, 0) so its Δc evaluates to −Inf (item
// frequencies are validated strictly positive and finite) and q == p
// is excluded branchlessly, exactly as a +Inf aggregate would exclude
// it.
func fillDeltasInto(p int, aggZs, aggFs, dzs, dfs []float64) {
	dfs = dfs[:len(dzs)] // bounds-check elimination
	apZ, apF := aggZs[p], aggFs[p]
	for q := range aggZs {
		dzs[q] = apZ - aggZs[q]
		dfs[q] = apF - aggFs[q]
	}
	dzs[p], dfs[p] = math.Inf(-1), 0
}

// fillDeltas is fillDeltasInto targeting the selector-wide scratch.
func (s *incrementalSelector) fillDeltas(p int) {
	fillDeltasInto(p, s.aggZ, s.aggF, s.dzs, s.dfs)
}

// recompute rebuilds the top-4 of the item at pos over all K−1
// destinations: three exact entries plus the 4th-best as the bound.
func (s *incrementalSelector) recompute(pos int) {
	s.scanTop4Direct(pos, int(s.chq[pos]))
	s.recomputed++
}

// scanTop4 rebuilds the top-4 of the item at pos from the deltas
// fillDeltas prepared for the item's current group, counting one
// recompute.
func (s *incrementalSelector) scanTop4(pos int) {
	s.scanTop4Into(pos, s.dzs, s.dfs)
	s.recomputed++
}

// scanTop4Into rebuilds the top-4 of the item at pos from the deltas
// a fillDeltasInto call prepared for the item's current group in
// dzs/dfs. The scan visits destinations ascending with strict
// comparisons only — an equal Δc never displaces an earlier (smaller)
// destination — which is exactly the ≻-top-4. It writes only the
// item's own table slots and reads the scratch, so the sharded sweeps
// may call it concurrently for distinct positions over shared
// read-only scratch (or per-shard scratch when they refill it).
func (s *incrementalSelector) scanTop4Into(pos int, dzs, dfs []float64) {
	it := s.fzt[pos]
	f, z, tfz := it.f, it.z, it.tfz
	dfs = dfs[:len(dzs)] // bounds-check elimination in the scan below
	negInf := math.Inf(-1)
	d0, d1, d2, d3 := int32(-1), int32(-1), int32(-1), int32(-1)
	v0, v1, v2, v3 := negInf, negInf, negInf, negInf
	for q := range dzs {
		// MoveReduction with the aggregate differences and the 2·f·z
		// term precomputed; same expression, same bits.
		dc := f*dzs[q] + z*dfs[q] - tfz
		if dc > v3 {
			q32 := int32(q)
			if dc > v2 {
				if dc > v1 {
					if dc > v0 {
						d3, v3 = d2, v2
						d2, v2 = d1, v1
						d1, v1 = d0, v0
						d0, v0 = q32, dc
					} else {
						d3, v3 = d2, v2
						d2, v2 = d1, v1
						d1, v1 = q32, dc
					}
				} else {
					d3, v3 = d2, v2
					d2, v2 = q32, dc
				}
			} else {
				d3, v3 = q32, dc
			}
		}
	}
	s.hot[pos] = cdsHot{bdc: v3, e0dc: v0, d0: d0, d1: d1, d2: d2, bdest: d3}
	s.e1dc[pos], s.e2dc[pos] = v1, v2
}

// scanTop4Direct is scanTop4Into with the delta fill fused into the
// scan: for a one-off rebuild of a single item there is no second
// member to share the scratch with, so staging K deltas through memory
// only costs bandwidth. Each destination's Δc is computed from the
// aggregate shadows inline — the same subtractions fillDeltasInto
// performs, feeding the same fused expression, so the bits match
// scanTop4Into exactly. The source group p is skipped by branch rather
// than by the (−Inf, 0) poke; a −Inf Δc never enters the strict-compare
// cascade, so the result is identical. Reads only the shadows and
// writes only the item's own slots: safe from sharded sweeps.
func (s *incrementalSelector) scanTop4Direct(pos, p int) {
	it := s.fzt[pos]
	f, z, tfz := it.f, it.z, it.tfz
	aggZs := s.aggZ
	aggFs := s.aggF[:len(aggZs)] // bounds-check elimination in the scan below
	apZ, apF := aggZs[p], aggFs[p]
	negInf := math.Inf(-1)
	d0, d1, d2, d3 := int32(-1), int32(-1), int32(-1), int32(-1)
	v0, v1, v2, v3 := negInf, negInf, negInf, negInf
	for q := range aggZs {
		if q == p {
			continue
		}
		// MoveReduction with the aggregate differences and the 2·f·z
		// term precomputed; same expression, same bits.
		dc := f*(apZ-aggZs[q]) + z*(apF-aggFs[q]) - tfz
		if dc > v3 {
			q32 := int32(q)
			if dc > v2 {
				if dc > v1 {
					if dc > v0 {
						d3, v3 = d2, v2
						d2, v2 = d1, v1
						d1, v1 = d0, v0
						d0, v0 = q32, dc
					} else {
						d3, v3 = d2, v2
						d2, v2 = d1, v1
						d1, v1 = q32, dc
					}
				} else {
					d3, v3 = d2, v2
					d2, v2 = q32, dc
				}
			} else {
				d3, v3 = q32, dc
			}
		}
	}
	s.hot[pos] = cdsHot{bdc: v3, e0dc: v0, d0: d0, d1: d1, d2: d2, bdest: d3}
	s.e1dc[pos], s.e2dc[pos] = v1, v2
}

//diverselint:hotpath per-selection champion handoff
func (s *incrementalSelector) next() (Move, bool) {
	// The champion is maintained by the constructor and by applied;
	// the per-selection sweep cost lives there. The counter still
	// tallies one logical scan per selection for comparability with
	// the naive strategy.
	s.scans++
	return s.champ, s.champFound
}

//diverselint:hotpath per-move incremental table update
func (s *incrementalSelector) applied(m Move) {
	from, to := m.From, m.To
	// refine reconciled agg before notifying us; refresh the shadows.
	s.aggZ[from], s.aggF[from] = s.agg[from].Z, s.agg[from].F
	s.aggZ[to], s.aggF[to] = s.agg[to].Z, s.agg[to].F
	s.chq[m.Pos] = int32(to)
	// The champion is rebuilt from scratch during this pass: every
	// item is visited exactly once (touched groups below, everything
	// else in the merge loop), and the fold uses the full canonical
	// comparator (Δc desc, channel asc, position asc) because the
	// three phases do not visit positions in one ascending sequence.
	champDc := 0.0
	champPos, champFrom, champTo := 0, 0, 0
	found := false
	// Items now in either touched group (including the moved item, now
	// in m.To): their own group's aggregates changed, so every cached
	// Δc of theirs is stale — full recompute.
	s.fillDeltas(from)
	for _, pos := range s.cur.ChannelPositions(from) {
		s.scanTop4(pos)
		h := &s.hot[pos]
		if cd := h.e0dc; cd > champDc {
			champDc, champFrom, champPos, champTo = cd, from, pos, int(h.d0)
			found = true
		}
		// No tie clause: within one group positions ascend, and the
		// second touched group is handled with the full comparator
		// below only if it could tie — see the tie folds below.
	}
	s.fillDeltas(to)
	for _, pos := range s.cur.ChannelPositions(to) {
		s.scanTop4(pos)
		h := &s.hot[pos]
		cd := h.e0dc
		if cd > champDc {
			champDc, champFrom, champPos, champTo = cd, to, pos, int(h.d0)
			found = true
			continue
		}
		if found && foldTie(cd, to, pos, champDc, champFrom, champPos) {
			champDc, champFrom, champPos, champTo = cd, to, pos, int(h.d0)
		}
	}
	// Every other item: only its Δc toward from and to changed.
	// Entries pointing at a touched group drop out of the item's list
	// (their old values retain no entry status); what remains is still
	// the exact ≻-descending top of the unchanged destinations,
	// because anything unlisted was already ⪯ bound. Merging the
	// remainder with the two fresh values in ≻ order yields exact
	// placements for as long as each merged value strictly beats the
	// bound — below that, an unlisted destination could outrank it.
	chq := s.chq
	// Equalized lengths let the compiler drop the per-item bounds
	// checks in the sweep.
	fzts := s.fzt[:len(chq)]
	hots := s.hot[:len(chq)]
	e1dcs, e2dcs := s.e1dc[:len(chq)], s.e2dc[:len(chq)]
	aggZs, aggFs := s.aggZ, s.aggF
	fZ, fF := aggZs[from], aggFs[from]
	tZ, tF := aggZs[to], aggFs[to]
	deltas := s.delta
	for p := range aggZs {
		deltas[p] = cdsDelta{
			zf: aggZs[p] - fZ, ff: aggFs[p] - fF,
			zt: aggZs[p] - tZ, ft: aggFs[p] - tF,
		}
	}
	f32, t32 := int32(from), int32(to)
	negInf := math.Inf(-1)
	for pos, p32 := range chq {
		if p32 == f32 || p32 == t32 {
			continue
		}
		d := deltas[p32]
		it := fzts[pos]
		// MoveReduction toward each touched group with the aggregate
		// differences and the 2·f·z term precomputed; same expression,
		// same bits.
		dcF := it.f*d.zf + it.z*d.ff - it.tfz
		dcT := it.f*d.zt + it.z*d.ft - it.tfz
		h := &hots[pos]
		if dcF < h.bdc && dcT < h.bdc {
			// Both fresh values fall strictly below the bound on Δc
			// alone, so neither can enter the list — no candidate
			// construction or destination tie-break needed. At most
			// the list loses entries that point at a touched group.
			// Absent slots hold dest −1 and never match a channel.
			a0, a1, a2 := h.d0, h.d1, h.d2
			if a0 != f32 && a0 != t32 && a1 != f32 && a1 != t32 && a2 != f32 && a2 != t32 {
				// Nothing changes for this item.
				if cd := h.e0dc; cd > champDc {
					champDc, champFrom, champPos, champTo = cd, int(p32), pos, int(a0)
					found = true
				} else if found && foldTie(h.e0dc, int(p32), pos, champDc, champFrom, champPos) {
					champDc, champFrom, champPos, champTo = h.e0dc, int(p32), pos, int(a0)
				}
				continue
			}
			// Filter-only: drop the touched entries. The survivors
			// remain the exact consecutive ≻-top of all destinations —
			// the touched groups' fresh values fall below the bound and
			// hence below every survivor — and the old bound still
			// covers everything unlisted, including those fresh values.
			var sd [3]int32
			var sv [3]float64
			j := 0
			if a0 >= 0 && a0 != f32 && a0 != t32 {
				sd[j], sv[j] = a0, h.e0dc
				j++
			}
			if a1 >= 0 && a1 != f32 && a1 != t32 {
				sd[j], sv[j] = a1, e1dcs[pos]
				j++
			}
			if a2 >= 0 && a2 != f32 && a2 != t32 {
				sd[j], sv[j] = a2, e2dcs[pos]
				j++
			}
			if j == 0 {
				// Every listed entry was invalidated; the new maximum
				// may hide behind any unlisted destination.
				s.recompute(pos)
			} else {
				for ; j < 3; j++ {
					sd[j], sv[j] = -1, negInf
				}
				h.e0dc, h.d0, h.d1, h.d2 = sv[0], sd[0], sd[1], sd[2]
				e1dcs[pos], e2dcs[pos] = sv[1], sv[2]
			}
			if cd := h.e0dc; cd > champDc {
				champDc, champFrom, champPos, champTo = cd, int(p32), pos, int(h.d0)
				found = true
			} else if found && foldTie(cd, int(p32), pos, champDc, champFrom, champPos) {
				champDc, champFrom, champPos, champTo = cd, int(p32), pos, int(h.d0)
			}
			continue
		}
		hi := cdsCandidate{dest: from, dc: dcF}
		lo := cdsCandidate{dest: to, dc: dcT}
		if better(lo, hi) {
			hi, lo = lo, hi
		}
		eD := [3]int32{h.d0, h.d1, h.d2}
		eV := [3]float64{h.e0dc, e1dcs[pos], e2dcs[pos]}
		en := 1
		if eD[1] >= 0 {
			en = 2
			if eD[2] >= 0 {
				en = 3
			}
		}
		bound := cdsCandidate{dest: int(h.bdest), dc: h.bdc}
		if !better(hi, bound) {
			// Reached only when a fresh Δc ties the bound exactly but
			// loses the destination tie-break; if no listed entry is
			// touched either, nothing changes.
			if eD[0] != f32 && eD[0] != t32 && eD[1] != f32 && eD[1] != t32 &&
				eD[2] != f32 && eD[2] != t32 {
				if cd := eV[0]; cd > champDc {
					champDc, champFrom, champPos, champTo = cd, int(p32), pos, int(eD[0])
					found = true
				} else if found && foldTie(cd, int(p32), pos, champDc, champFrom, champPos) {
					champDc, champFrom, champPos, champTo = cd, int(p32), pos, int(eD[0])
				}
				continue
			}
		}
		// General fold: merge the untouched listed entries with
		// {hi, lo} in ≻ order, placing up to three exact entries
		// while they strictly beat the old bound. A fourth merged
		// value that still beats the bound becomes the new bound
		// (it dominates everything dropped); otherwise the old bound
		// keeps covering the remainder.
		ei, fi, out := 0, 0, 0
		ne := [3]cdsCandidate{{-1, negInf}, {-1, negInf}, {-1, negInf}}
		newBound := bound
		for out < 4 {
			for ei < en {
				d := eD[ei]
				if d == f32 || d == t32 {
					ei++
					continue
				}
				break
			}
			var c cdsCandidate
			switch {
			case ei < en && fi < 2:
				fc := hi
				if fi == 1 {
					fc = lo
				}
				c = cdsCandidate{dest: int(eD[ei]), dc: eV[ei]}
				if better(c, fc) {
					ei++
				} else {
					c = fc
					fi++
				}
			case ei < en:
				c = cdsCandidate{dest: int(eD[ei]), dc: eV[ei]}
				ei++
			case fi < 2:
				c = hi
				if fi == 1 {
					c = lo
				}
				fi++
			default:
				c = cdsCandidate{dest: -1, dc: negInf} // exhausted; fails the bound check
			}
			if !better(c, bound) {
				break
			}
			if out < 3 {
				ne[out] = c
			} else {
				newBound = c
			}
			out++
		}
		if out == 0 {
			// The old best was invalidated and the fresh values fall
			// at or below the bound: the new maximum may hide behind
			// any unlisted destination.
			s.recompute(pos)
		} else {
			*h = cdsHot{
				bdc: newBound.dc, e0dc: ne[0].dc,
				d0: int32(ne[0].dest), d1: int32(ne[1].dest), d2: int32(ne[2].dest),
				bdest: int32(newBound.dest),
			}
			e1dcs[pos], e2dcs[pos] = ne[1].dc, ne[2].dc
		}
		if cd := h.e0dc; cd > champDc {
			champDc, champFrom, champPos, champTo = cd, int(p32), pos, int(h.d0)
			found = true
		} else if found && foldTie(cd, int(p32), pos, champDc, champFrom, champPos) {
			champDc, champFrom, champPos, champTo = cd, int(p32), pos, int(h.d0)
		}
	}
	s.champ = Move{Pos: champPos, From: champFrom, To: champTo, Reduction: champDc}
	s.champFound = found
}

// foldTie reports whether an item with best reduction dc in group p at
// position pos steals a champion tie: same Δc, canonically earlier
// (smaller channel, then smaller position) than the current champion.
func foldTie(dc float64, p, pos int, champDc float64, champFrom, champPos int) bool {
	//diverselint:ignore floateq deliberate exact tie-break: equal Δc across items must resolve by (channel, position) exactly like the naive scan order
	return dc == champDc && (p < champFrom || (p == champFrom && pos < champPos))
}

func (s *incrementalSelector) stats() selStats {
	return selStats{scans: s.scans, recomputed: s.recomputed}
}
