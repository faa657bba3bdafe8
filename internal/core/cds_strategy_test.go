package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This file pins the CDS move-selection engines to each other: the
// incremental candidate table and the parallel sharded sweeps (at
// several worker counts) must produce a move-for-move identical
// refinement — same positions, same channels, and the same
// floating-point BITS for every Δc and cost — as the naive full
// rescan, across workload shapes (N, K, skewness θ, diversity Φ) far
// wider than the paper's defaults. Exact float comparisons are
// deliberate: the table engines' whole contract is bit-level
// equality, so any tolerance would mask a divergence. The batched
// mode, which deliberately relaxes strict steepest descent, is pinned
// by a move-by-move replay oracle instead (assertBatchedContract).

// diverseDatabase generates an N-item database with Zipf-like
// frequencies of skewness theta and log-uniform sizes spanning phi
// decades — the same shape internal/workload produces, rebuilt here
// because core cannot import workload (it would cycle).
func diverseDatabase(tb testing.TB, seed int, n int, theta, phi float64) *Database {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	items := make([]Item, n)
	var totalFreq float64
	for i := range items {
		f := math.Pow(1/float64(i+1), theta)
		z := math.Pow(10, rng.Float64()*phi)
		items[i] = Item{ID: i + 1, Freq: f, Size: z}
		totalFreq += f
	}
	for i := range items {
		items[i].Freq /= totalFreq
	}
	return MustNewDatabase(items)
}

// strictEngines returns the strict steepest-descent engines pinned
// bit-for-bit against the naive oracle: the default plus the parallel
// engine at worker counts 1, 2 and 8. The default runs the scan at
// K ≤ cdsScanMaxK and the candidate tables above, so it checks the
// dispatch at every K; Workers=1 delegates to the serial candidate
// tables, so the table engine meets the oracle at every K too.
// Multi-worker engines force-shard so these small workloads exercise
// the sharded sweep, reduction and in-sweep recompute paths that real
// inputs only hit at scale.
func strictEngines(maxMoves int) []*CDS {
	return []*CDS{
		{Strategy: StrategyIncremental, MaxMoves: maxMoves},
		{Strategy: StrategyParallel, Workers: 1, MaxMoves: maxMoves},
		{Strategy: StrategyParallel, Workers: 2, MaxMoves: maxMoves, forceShard: true},
		{Strategy: StrategyParallel, Workers: 8, MaxMoves: maxMoves, forceShard: true},
	}
}

// assertIdenticalTraces refines a with every strict engine and fails
// the test on the first bit-level difference from the naive oracle.
func assertIdenticalTraces(t *testing.T, a *Allocation, maxMoves int) {
	t.Helper()
	naive := &CDS{Strategy: StrategyNaive, MaxMoves: maxMoves}
	refN, movesN, err := naive.RefineWithTrace(a)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	for _, eng := range strictEngines(maxMoves) {
		label := eng.Strategy.String()
		if eng.Strategy == StrategyParallel {
			label = fmt.Sprintf("parallel-w%d", eng.Workers)
		}
		refE, movesE, err := eng.RefineWithTrace(a)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(movesN) != len(movesE) {
			t.Fatalf("move counts differ: naive %d, %s %d", len(movesN), label, len(movesE))
		}
		for i := range movesN {
			n, e := movesN[i], movesE[i]
			if n.Pos != e.Pos || n.From != e.From || n.To != e.To {
				t.Fatalf("move %d differs: naive %+v, %s %+v", i, n, label, e)
			}
			// Bit-exact: Δc and both costs must be the very same float64s.
			if n.Reduction != e.Reduction {
				t.Fatalf("move %d Reduction bits differ: naive %b, %s %b", i, n.Reduction, label, e.Reduction)
			}
			if n.CostBefore != e.CostBefore || n.CostAfter != e.CostAfter {
				t.Fatalf("move %d cost bits differ: naive %+v, %s %+v", i, n, label, e)
			}
			if e.Batch != 0 {
				t.Fatalf("move %d: strict engine %s stamped batch ordinal %d", i, label, e.Batch)
			}
		}
		if !refN.Equal(refE) {
			t.Fatalf("%s: refined allocations differ despite identical traces", label)
		}
	}
}

// assertBatchedContract refines a with the batched mode and verifies
// its whole contract by replaying the recorded trace move-by-move
// against the naive Eq. 4 oracle:
//
//   - batch ordinals are contiguous from 1 and each batch's moves
//     touch pairwise disjoint {source, destination} group pairs in
//     canonical order (Δc descending, source channel ascending);
//   - the head of every batch is the strict steepest-descent champion
//     of its application state — bit-identical to what the naive scan
//     selects there;
//   - every move's recorded Δc and cost chain are bit-exact at its
//     application state (the commutation guarantee: earlier batch
//     members cannot shift a later member's Δc by even one bit);
//   - replaying each batch in REVERSE order reaches the same
//     allocation with the same per-move Δc bits — disjoint moves
//     commute;
//   - with no move bound, the final state is a local optimum the
//     naive scan certifies (no remaining move above eps).
func assertBatchedContract(t *testing.T, a *Allocation, maxMoves, batch, workers int) {
	t.Helper()
	eng := &CDS{Strategy: StrategyParallel, Workers: workers, BatchSize: batch, MaxMoves: maxMoves, forceShard: true}
	ref, moves, err := eng.RefineWithTrace(a)
	if err != nil {
		t.Fatalf("batched(w=%d,b=%d): %v", workers, batch, err)
	}
	if maxMoves > 0 && len(moves) > maxMoves {
		t.Fatalf("batched applied %d moves, bound %d", len(moves), maxMoves)
	}
	// Replicate refine's default epsilon.
	eps := 1e-300
	if init := Cost(a); init > 0 {
		eps = 1e-12 * init
	}

	cur := a.Clone()
	cost := Cost(cur)
	lastBatch, batchStart := 0, 0
	for i, m := range moves {
		if m.Batch != lastBatch && m.Batch != lastBatch+1 {
			t.Fatalf("move %d: batch ordinal %d after %d", i, m.Batch, lastBatch)
		}
		agg := cur.Aggregates()
		if m.Batch == lastBatch+1 {
			lastBatch, batchStart = m.Batch, i
			// The head of a batch is the strict global champion.
			nv := &naiveSelector{cur: cur, agg: agg}
			want, found := nv.next()
			if !found {
				t.Fatalf("batch %d opens but the naive scan finds no positive move", m.Batch)
			}
			if want.Pos != m.Pos || want.From != m.From || want.To != m.To || want.Reduction != m.Reduction {
				t.Fatalf("batch %d head %+v is not the strict champion %+v", m.Batch, m, want)
			}
		} else {
			prev := moves[i-1]
			if m.Reduction > prev.Reduction ||
				(m.Reduction == prev.Reduction && m.From <= prev.From) {
				t.Fatalf("batch %d: moves %d→%d violate canonical order: %+v then %+v",
					m.Batch, i-1, i, prev, m)
			}
			for j := batchStart; j < i; j++ {
				p := moves[j]
				if p.From == m.From || p.From == m.To || p.To == m.From || p.To == m.To {
					t.Fatalf("batch %d: moves %d and %d share a group: %+v, %+v", m.Batch, j, i, p, m)
				}
			}
		}
		if !(m.Reduction > eps) {
			t.Fatalf("move %d: Δc %g not above eps %g", i, m.Reduction, eps)
		}
		if got := cur.ChannelOf(m.Pos); got != m.From {
			t.Fatalf("move %d: item at pos %d is in channel %d, move says %d", i, m.Pos, got, m.From)
		}
		if dc := MoveReduction(cur.Database().Item(m.Pos), agg[m.From], agg[m.To]); dc != m.Reduction {
			t.Fatalf("move %d: replayed Δc bits %b, recorded %b", i, dc, m.Reduction)
		}
		if m.CostBefore != cost {
			t.Fatalf("move %d: CostBefore bits %b, replay %b", i, m.CostBefore, cost)
		}
		cur.move(m.Pos, m.To)
		cost = Cost(cur)
		if m.CostAfter != cost {
			t.Fatalf("move %d: CostAfter bits %b, replay %b", i, m.CostAfter, cost)
		}
	}
	if !ref.Equal(cur) {
		t.Fatal("refined allocation differs from the move-by-move replay")
	}
	// Commutation: replay every batch in reverse order. Each move's
	// Δc must hold bit-for-bit in the permuted state too, and the
	// batch must land on the same allocation.
	cur = a.Clone()
	for i := 0; i < len(moves); {
		j := i
		for j < len(moves) && moves[j].Batch == moves[i].Batch {
			j++
		}
		for r := j - 1; r >= i; r-- {
			m := moves[r]
			agg := cur.Aggregates()
			if dc := MoveReduction(cur.Database().Item(m.Pos), agg[m.From], agg[m.To]); dc != m.Reduction {
				t.Fatalf("batch %d: reverse-order replay shifts move %d's Δc bits: %b vs %b",
					m.Batch, r, dc, m.Reduction)
			}
			cur.move(m.Pos, m.To)
		}
		i = j
	}
	if !ref.Equal(cur) {
		t.Fatal("reverse-order batch replay reached a different allocation")
	}
	// Termination: without a move bound the result is a local optimum
	// the strict engines certify.
	if maxMoves == 0 {
		agg := ref.Aggregates()
		nv := &naiveSelector{cur: ref, agg: agg}
		if m, found := nv.next(); found && m.Reduction > eps {
			t.Fatalf("batched refinement terminated with improving move %+v above eps %g", m, eps)
		}
	}
}

// TestCDSStrategiesIdenticalTraces is the differential gate for the
// incremental default: 24 randomized workloads spanning N ∈ [12, 300],
// K ∈ [2, 24], θ ∈ [0.4, 1.6], Φ ∈ [0.5, 3], from both random and
// DRP starting points.
func TestCDSStrategiesIdenticalTraces(t *testing.T) {
	cases := []struct {
		n     int
		k     int
		theta float64
		phi   float64
	}{
		{12, 2, 0.8, 2.0},
		{20, 3, 0.4, 0.5},
		{20, 7, 1.6, 3.0},
		{40, 2, 1.0, 1.0},
		{40, 5, 0.8, 2.0},
		{40, 13, 0.6, 2.5},
		{60, 4, 1.2, 0.5},
		{60, 10, 0.8, 2.0},
		{80, 6, 0.4, 3.0},
		{80, 16, 1.4, 1.5},
		{120, 6, 0.8, 2.0}, // the paper's base point
		{120, 24, 1.0, 2.0},
		{200, 8, 0.6, 1.0},
		{300, 12, 1.2, 2.0},
	}
	for _, tc := range cases {
		for _, seed := range []int{1, 2} {
			db := diverseDatabase(t, seed*31+tc.n, tc.n, tc.theta, tc.phi)
			start := randomAllocation(t, db, tc.k, seed*17+tc.k)
			assertIdenticalTraces(t, start, 0)

			drp, err := NewDRP().Allocate(db, tc.k)
			if err != nil {
				t.Fatalf("DRP N=%d K=%d: %v", tc.n, tc.k, err)
			}
			assertIdenticalTraces(t, drp, 0)
		}
	}
}

// TestCDSStrategiesIdenticalUnderMaxMoves checks the bound interacts
// identically with both strategies (the truncated prefix is the same).
func TestCDSStrategiesIdenticalUnderMaxMoves(t *testing.T) {
	db := diverseDatabase(t, 5, 90, 0.8, 2)
	a := randomAllocation(t, db, 8, 3)
	for _, maxMoves := range []int{1, 2, 5, 17} {
		assertIdenticalTraces(t, a, maxMoves)
	}
}

// TestCDSStrategiesIdenticalOnPaperExample ties the differential gate
// to the worked example reproduced by the golden tests.
func TestCDSStrategiesIdenticalOnPaperExample(t *testing.T) {
	db := PaperExampleDatabase()
	drp, err := NewDRPExampleConsistent().Allocate(db, PaperExampleK)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalTraces(t, drp, 0)
	for seed := 0; seed < 6; seed++ {
		assertIdenticalTraces(t, randomAllocation(t, db, PaperExampleK, seed), 0)
	}
}

// TestCDSIncrementalSelectorInvariant cross-checks the candidate
// cache against a fresh full scan after every applied move on one
// long refinement: the cached entry list must be a bit-exact prefix
// of the fresh ≻-descending ranking under the canonical tie-break,
// and every destination the list does not name must fall at or below
// the cached bound.
func TestCDSIncrementalSelectorInvariant(t *testing.T) {
	db := diverseDatabase(t, 9, 70, 0.8, 2)
	a := randomAllocation(t, db, 6, 4)

	cur := a.Clone()
	agg := cur.Aggregates()
	sel := newIncrementalSelector(cur, agg, acquireCDSTables(db.Len(), cur.K()))
	check := func(step int) {
		for pos := 0; pos < db.Len(); pos++ {
			p := cur.ChannelOf(pos)
			it := db.Item(pos)
			// Fresh exact ranking of all destinations under ≻.
			var fresh []cdsCandidate
			for q := 0; q < cur.K(); q++ {
				if q == p {
					continue
				}
				fresh = append(fresh, cdsCandidate{dest: q, dc: MoveReduction(it, agg[p], agg[q])})
			}
			sort.SliceStable(fresh, func(i, j int) bool { return better(fresh[i], fresh[j]) })
			h := sel.hot[pos]
			cached := []cdsCandidate{
				{dest: int(h.d0), dc: h.e0dc},
				{dest: int(h.d1), dc: sel.e1dc[pos]},
				{dest: int(h.d2), dc: sel.e2dc[pos]},
			}
			n := 0
			for n < len(cached) && cached[n].dest >= 0 {
				n++
			}
			for _, e := range cached[n:] {
				if e.dest != -1 || !math.IsInf(e.dc, -1) {
					t.Fatalf("step %d pos %d: absent slot holds %+v", step, pos, e)
				}
			}
			if n < 1 || n > len(fresh) {
				t.Fatalf("step %d pos %d: entry count %d outside [1,%d]", step, pos, n, len(fresh))
			}
			for i := 0; i < n; i++ {
				if cached[i].dest != fresh[i].dest || cached[i].dc != fresh[i].dc {
					t.Fatalf("step %d pos %d: entry %d cached %+v, fresh %+v",
						step, pos, i, cached[i], fresh[i])
				}
			}
			bound := cdsCandidate{dest: int(h.bdest), dc: h.bdc}
			for _, e := range fresh[n:] {
				if better(e, bound) {
					t.Fatalf("step %d pos %d: unlisted entry %+v beats bound %+v",
						step, pos, e, bound)
				}
			}
		}
	}
	check(-1)
	for step := 0; ; step++ {
		m, found := sel.next()
		if !found || m.Reduction <= 0 {
			break
		}
		cur.move(m.Pos, m.To)
		reconcileGroup(cur, agg, m.From)
		reconcileGroup(cur, agg, m.To)
		sel.applied(m)
		check(step)
	}
}

// TestCDSBatchedContract runs the batch-replay oracle across the same
// workload table as the differential gate, at several batch sizes and
// worker counts, from both random and DRP starting points.
func TestCDSBatchedContract(t *testing.T) {
	cases := []struct {
		n     int
		k     int
		theta float64
		phi   float64
	}{
		{20, 3, 0.4, 0.5},
		{40, 5, 0.8, 2.0},
		{60, 10, 0.8, 2.0},
		{80, 16, 1.4, 1.5},
		{120, 6, 0.8, 2.0}, // the paper's base point
		{120, 24, 1.0, 2.0},
		{300, 12, 1.2, 2.0},
	}
	for _, tc := range cases {
		for _, seed := range []int{1, 2} {
			db := diverseDatabase(t, seed*31+tc.n, tc.n, tc.theta, tc.phi)
			start := randomAllocation(t, db, tc.k, seed*17+tc.k)
			for _, batch := range []int{2, 4, tc.k} {
				assertBatchedContract(t, start, 0, batch, 1)
				assertBatchedContract(t, start, 0, batch, 8)
			}
			drp, err := NewDRP().Allocate(db, tc.k)
			if err != nil {
				t.Fatalf("DRP N=%d K=%d: %v", tc.n, tc.k, err)
			}
			assertBatchedContract(t, drp, 0, 4, 8)
		}
	}
}

// TestCDSBatchedUnderMaxMoves checks the move bound can truncate a
// refinement mid-batch without violating the replay contract.
func TestCDSBatchedUnderMaxMoves(t *testing.T) {
	db := diverseDatabase(t, 5, 90, 0.8, 2)
	a := randomAllocation(t, db, 8, 3)
	for _, maxMoves := range []int{1, 2, 3, 5, 17} {
		assertBatchedContract(t, a, maxMoves, 3, 2)
	}
}

// TestCDSDefaultEngineDispatch pins the default engine's choice by
// K: the scan at K ≤ cdsScanMaxK and the candidate tables above,
// told apart by the candidate-recompute counter only the tables
// advance. Explicit strategies are honoured at every K (StrategyParallel
// with one worker is the serial table engine), and every configuration
// applies the oracle's moves.
func TestCDSDefaultEngineDispatch(t *testing.T) {
	db := diverseDatabase(t, 3, 200, 0.8, 2)
	for _, k := range []int{2, 6, cdsScanMaxK, cdsScanMaxK + 1, 16, 32} {
		a := randomAllocation(t, db, k, k)
		_, want, err := (&CDS{Strategy: StrategyNaive}).RefineWithTrace(a)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name   string
			cds    *CDS
			tables bool
		}{
			{"default", &CDS{}, k > cdsScanMaxK},
			{"naive", &CDS{Strategy: StrategyNaive}, false},
			{"parallel", &CDS{Strategy: StrategyParallel, Workers: 1}, true},
		}
		for _, tc := range cases {
			before := cdsCandidatesRecomputed.Value()
			_, got, err := tc.cds.RefineWithTrace(a)
			if err != nil {
				t.Fatalf("K=%d %s: %v", k, tc.name, err)
			}
			if ranTables := cdsCandidatesRecomputed.Value() > before; ranTables != tc.tables {
				t.Errorf("K=%d %s: ran tables = %v, want %v", k, tc.name, ranTables, tc.tables)
			}
			if len(got) != len(want) {
				t.Fatalf("K=%d %s: %d moves, oracle %d", k, tc.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("K=%d %s: move %d = %+v, oracle %+v", k, tc.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCDSStrategyRoundTrip pins String/ParseCDSStrategy as exact
// inverses over the three engines and the error path for unknown
// names and values.
func TestCDSStrategyRoundTrip(t *testing.T) {
	for _, s := range []CDSStrategy{StrategyIncremental, StrategyNaive, StrategyParallel} {
		got, err := ParseCDSStrategy(s.String())
		if err != nil {
			t.Fatalf("ParseCDSStrategy(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %v → %q → %v", s, s.String(), got)
		}
	}
	if _, err := ParseCDSStrategy("exhaustive"); err == nil {
		t.Fatal("ParseCDSStrategy accepted an unknown name")
	}
	if got := CDSStrategy(42).String(); got != "CDSStrategy(42)" {
		t.Fatalf("unknown strategy String() = %q", got)
	}
}

// TestCDSConfigErrors covers refine's validation of the three-engine
// table: unknown strategies, negative worker counts, and batch sizes
// on engines that cannot honor them.
func TestCDSConfigErrors(t *testing.T) {
	db := PaperExampleDatabase()
	a := randomAllocation(t, db, PaperExampleK, 1)
	cases := []struct {
		name string
		cds  *CDS
		want string
	}{
		{"unknown strategy", &CDS{Strategy: CDSStrategy(42)}, "unknown strategy"},
		{"negative workers", &CDS{Strategy: StrategyParallel, Workers: -1}, "negative Workers"},
		{"batch on incremental", &CDS{Strategy: StrategyIncremental, BatchSize: 4}, "requires StrategyParallel"},
		{"batch on naive", &CDS{Strategy: StrategyNaive, BatchSize: 2}, "requires StrategyParallel"},
	}
	for _, tc := range cases {
		if _, err := tc.cds.Refine(a); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}
	// The valid corners of the same table still refine.
	for _, cds := range []*CDS{
		{Strategy: StrategyParallel, Workers: 0, BatchSize: 1},
		{Strategy: StrategyParallel, Workers: 3, BatchSize: 0},
	} {
		if _, err := cds.Refine(a); err != nil {
			t.Fatalf("valid config %+v rejected: %v", cds, err)
		}
	}
}

// FuzzCDSStrategies fuzzes the differential property across all
// strict engines plus the batched replay contract. The corpus seeds
// from the paper-example database (usePaper=true inputs); the fuzzer
// then explores synthetic databases, channel counts and arbitrary
// starting assignments. Any divergence between the engines — even a
// single bit of one Δc — is a crash.
func FuzzCDSStrategies(f *testing.F) {
	paperStart := []byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	f.Add(true, int64(0), uint8(10), uint8(PaperExampleK), paperStart)
	f.Add(true, int64(0), uint8(10), uint8(2), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(true, int64(0), uint8(10), uint8(10), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(false, int64(7), uint8(48), uint8(6), []byte{0, 3, 1, 4, 2, 5})
	f.Add(false, int64(42), uint8(130), uint8(16), []byte{})

	f.Fuzz(func(t *testing.T, usePaper bool, seed int64, rawN, rawK uint8, assign []byte) {
		var db *Database
		if usePaper {
			db = PaperExampleDatabase()
		} else {
			n := int(rawN)%64 + 2
			db = diverseDatabase(t, int(seed), n, 0.4+float64(uint64(seed)%13)/10, 0.5+float64(uint64(seed)%5)/2)
		}
		n := db.Len()
		k := int(rawK)%n + 1
		channel := make([]int, n)
		for i := range channel {
			if len(assign) > 0 {
				channel[i] = int(assign[i%len(assign)]) % k
			}
		}
		a, err := NewAllocation(db, k, channel)
		if err != nil {
			t.Fatalf("constructed allocation invalid: %v", err)
		}
		assertIdenticalTraces(t, a, 0)
		batch := int(rawN)%k + 2
		assertBatchedContract(t, a, 0, batch, 2)
	})
}
