// Command bcastbench runs the repository's tracked benchmark families
// and writes a machine-readable JSON report (BENCH_<pr>.json) so the
// performance trajectory is recorded alongside the code it measures.
//
// The families mirror the go-test benchmarks (same names, same
// configurations) but run through testing.Benchmark so a single
// command produces one self-describing artifact:
//
//   - CDSScale: the production-scale CDS grid comparing the naive
//     full rescan against the default engine (N up to 10k, K up to
//     64), plus the derived naive/default speedups. The default runs
//     the rescan at K ≤ 12 and the candidate tables above, so its
//     K=6 cells time the rescan; BenchmarkCDSScale in internal/core
//     pins the tables at every K. Full runs add two large-N cells of
//     the default engine: N=10^5/K=256, and N=10^6/K=1024 pinned to
//     one iteration. Every CDS result carries the engine's strategy
//     and the process GOMAXPROCS.
//   - CDSGate: the bit-identity gate — StrategyNaive and the default
//     engine (the candidate tables, at the gate's K > 12) must produce
//     identical move traces down to the float bits. A mismatch fails
//     the run (nonzero exit), so CI enforces the differential
//     contract, not just the tests.
//   - Tables2to4: the paper's worked example (DRP + CDS, cost 22.29).
//   - Figure6/Figure7: the execution-time comparisons over K and N
//     with GOPT pinned to Workers: 1 — timing figures measure
//     algorithmic cost, so the parallel evaluation fabric must not
//     fold wall-clock by the benchmark machine's core count.
//   - TraceOverhead: the cost of the diversetrace probes on the CDS
//     hot path, disabled and enabled, plus a microbenchmark pricing
//     one disabled probe. The disabled path is gated at 2%: if the
//     probes ever grow past a few atomic loads, the gate fails the
//     bench target rather than letting always-on instrumentation tax
//     every allocation.
//   - NetcastFanout: the fan-out rearchitecture, measured as
//     subscribers-per-core over timed windows (see fanout.go): legacy
//     per-subscriber queues vs the shared frame ring over real TCP,
//     plus a 100k-subscriber ring cell with byte-parity verifiers.
//     Full runs gate the ring/queue gain at 10x, parity failures and
//     100k backpressure events at zero.
//   - TelemetryOverhead: what the costmon cost-attribution probes cost
//     the fan-out drain (see telemetry.go) — ring cells with the
//     monitor absent and present, microbenchmarks pricing one
//     estimator update, one wait record and each per-batch probe, and
//     an analytically derived overhead percentage gated at 2% for
//     both the enabled and the disabled configuration.
//
// Examples:
//
//	bcastbench -out BENCH_10.json
//	bcastbench -quick -benchtime 1x            # CI: smallest honest signal
//	bcastbench -quick -family cdsgate          # CI: the bit-identity gate
//	bcastbench -quick -family telemetry       # CI: the costmon overhead gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"diversecast/internal/core"
	"diversecast/internal/gopt"
	"diversecast/internal/obs/trace"
	"diversecast/internal/workload"
)

// benchResult is one benchmark's measurements; Metrics carries the
// custom b.ReportMetric values (cost, Wb_s). The CDS cells also record
// the engine's strategy and the process GOMAXPROCS so a reader can
// tell a single-core artifact from a multi-core one without guessing.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Strategy    string             `json:"strategy,omitempty"`
	GOMAXPROCS  int                `json:"gomaxprocs,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// report is the top-level JSON document. Derived holds quantities
// computed across results — currently the naive/incremental speedup
// per CDSScale cell.
type report struct {
	GeneratedAt string             `json:"generated_at"`
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	NumCPU      int                `json:"num_cpu"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	BenchTime   string             `json:"bench_time"`
	Quick       bool               `json:"quick"`
	Results     []benchResult      `json:"results"`
	Derived     map[string]float64 `json:"derived,omitempty"`
}

// record appends one result and returns a pointer into the report so
// callers can attach per-result metadata (the CDS engine tags).
func (r *report) record(name string, br testing.BenchmarkResult) *benchResult {
	res := benchResult{
		Name:        name,
		Iterations:  br.N,
		NsPerOp:     float64(br.NsPerOp()),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
	if len(br.Extra) > 0 {
		res.Metrics = make(map[string]float64, len(br.Extra))
		for k, v := range br.Extra {
			res.Metrics[k] = v
		}
	}
	r.Results = append(r.Results, res)
	fmt.Fprintf(os.Stderr, "%-48s %12.0f ns/op\n", name, res.NsPerOp)
	return &r.Results[len(r.Results)-1]
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcastbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bcastbench", flag.ContinueOnError)
	fs.SetOutput(out)
	outPath := fs.String("out", "BENCH_10.json", "report path ('-' for stdout)")
	quick := fs.Bool("quick", false, "reduced grid: skip the large-N cells and the GOPT timing columns")
	benchTime := fs.String("benchtime", "", "per-benchmark time or iteration budget (default 3x, 1x with -quick)")
	family := fs.String("family", "", "run only one family: cds, cdsgate, tables, figures, trace, fanout or telemetry (empty = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bt := *benchTime
	if bt == "" {
		bt = "3x"
		if *quick {
			bt = "1x"
		}
	}
	// testing.Benchmark reads the -test.benchtime flag value that
	// testing.Init registers; setting it here budgets every family.
	testing.Init()
	if err := flag.Set("test.benchtime", bt); err != nil {
		return fmt.Errorf("benchtime %q: %w", bt, err)
	}

	rep := &report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BenchTime:   bt,
		Quick:       *quick,
		Derived:     make(map[string]float64),
	}

	want := func(name string) bool { return *family == "" || *family == name }
	switch *family {
	case "", "cds", "cdsgate", "tables", "figures", "trace", "fanout", "telemetry":
	default:
		return fmt.Errorf("unknown family %q (want cds, cdsgate, tables, figures, trace, fanout or telemetry)", *family)
	}
	if want("cds") {
		if err := cdsScale(rep, *quick, bt); err != nil {
			return err
		}
	}
	if want("cdsgate") {
		if err := cdsGate(rep, *quick); err != nil {
			return err
		}
	}
	if want("tables") {
		if err := tables2to4(rep); err != nil {
			return err
		}
	}
	if want("figures") {
		if err := figureTimings(rep, *quick); err != nil {
			return err
		}
	}
	if want("trace") {
		if err := traceOverhead(rep); err != nil {
			return err
		}
	}
	if want("fanout") {
		if err := netcastFanout(rep, *quick); err != nil {
			return err
		}
	}
	if want("telemetry") {
		if err := telemetryOverhead(rep, *quick); err != nil {
			return err
		}
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *outPath == "-" {
		if _, err := out.Write(doc); err != nil {
			return err
		}
	} else if err := os.WriteFile(*outPath, doc, 0o644); err != nil {
		return err
	}
	// The overhead gate runs after the artifact is written so a failing
	// run still leaves the numbers on disk for inspection. -quick runs
	// a single iteration per cell, too noisy to gate on.
	if !*quick {
		if pct, ok := rep.Derived["trace_overhead_disabled_pct"]; ok && pct > 2 {
			return fmt.Errorf("disabled-tracer overhead %.3f%% exceeds the 2%% budget: the probe path must stay a few atomic loads", pct)
		}
		if gain, ok := rep.Derived["netcast_fanout_gain_subs_per_core"]; ok && gain < 10 {
			return fmt.Errorf("fan-out gain %.2fx below the 10x floor: the shared ring must beat per-subscriber queues by an order of magnitude in subscribers-per-core", gain)
		}
		if bp, ok := rep.Derived["netcast_fanout_100k_backpressure_events"]; ok && bp != 0 {
			return fmt.Errorf("100k cell saw %.0f backpressure events (resyncs/drops): the scale point must hold without a drop storm", bp)
		}
		// Both TCP cells must have fed their subscribers the whole
		// broadcast: a saturated cell would inflate (queue) or deflate
		// (ring) subscribers-per-core, making the gain meaningless.
		for _, key := range []string{"netcast_fanout_queue_delivery_ratio", "netcast_fanout_ring_delivery_ratio"} {
			if ratio, ok := rep.Derived[key]; ok && ratio < 0.95 {
				return fmt.Errorf("%s = %.3f: the cell did not sustain the offered load, so its subscribers-per-core is not comparable", key, ratio)
			}
		}
	}
	// Parity is correctness, not noise: gate it even in -quick.
	if pf, ok := rep.Derived["netcast_fanout_parity_failures"]; ok && pf != 0 {
		return fmt.Errorf("%.0f payload parity failures across fan-out cells: subscribers received bytes that differ from the deterministic generator", pf)
	}
	// The telemetry overheads are analytic bounds (probe costs measured
	// over thousand-iteration batches against the cell's per-delivery
	// cost), robust even at -quick iteration counts, so they gate every
	// run like the bit-identity and parity checks.
	if pct, ok := rep.Derived["telemetry_overhead_enabled_pct"]; ok && pct > 2 {
		return fmt.Errorf("enabled cost-telemetry overhead %.3f%% exceeds the 2%% budget: the steady-state probe must stay a nil check and a bool load per batch", pct)
	}
	if pct, ok := rep.Derived["telemetry_overhead_disabled_pct"]; ok && pct > 2 {
		return fmt.Errorf("disabled cost-telemetry overhead %.3f%% exceeds the 2%% budget: servers without -telemetry must pay only the nil check", pct)
	}
	return nil
}

// randomAllocation mirrors the core test helper: a deterministic
// uniform assignment used as the CDSScale refinement start.
func randomAllocation(db *core.Database, k, seed int) (*core.Allocation, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	channel := make([]int, db.Len())
	for i := range channel {
		channel[i] = rng.Intn(k)
	}
	return core.NewAllocation(db, k, channel)
}

// benchCDS benchmarks one configured engine refining a fixed start,
// records the cell with its engine tags, reports the refined cost as a
// metric, and returns ns/op.
func benchCDS(rep *report, name string, cds *core.CDS, a *core.Allocation) (float64, error) {
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		var cost float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := cds.Refine(a)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			cost = core.Cost(out)
		}
		b.ReportMetric(cost, "cost")
	})
	if benchErr != nil {
		return 0, benchErr
	}
	res := rep.record(name, br)
	res.Strategy = cds.Strategy.String()
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	return res.NsPerOp, nil
}

// cdsScale runs the CDSScale grid and derives per-cell speedups.
// MaxMoves pins the amount of optimization work per op exactly like
// BenchmarkCDSScale (keep the constant in sync with bench_test.go).
// Full runs append the large-N cells; bt is the surrounding -benchtime
// budget, restored after the N=10^6 cell pins itself to a single
// iteration.
func cdsScale(rep *report, quick bool, bt string) error {
	const maxMoves = 200
	sizes := []int{120, 1000, 10000}
	if quick {
		sizes = []int{120, 1000}
	}
	for _, n := range sizes {
		db := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
		for _, k := range []int{6, 16, 64} {
			a, err := randomAllocation(db, k, 7)
			if err != nil {
				return err
			}
			// The incremental column is the default engine, which runs
			// the rescan at K ≤ 12, so the K=6 ratio is about 1.
			var ns [2]float64
			for i, cds := range []*core.CDS{
				{Strategy: core.StrategyNaive, MaxMoves: maxMoves},
				{Strategy: core.StrategyIncremental, MaxMoves: maxMoves},
			} {
				ns[i], err = benchCDS(rep, fmt.Sprintf("CDSScale/N=%d/K=%d/%s", n, k, cds.Strategy), cds, a)
				if err != nil {
					return err
				}
			}
			if ns[1] > 0 {
				rep.Derived[fmt.Sprintf("cds_speedup/N=%d/K=%d", n, k)] = ns[0] / ns[1]
			}
		}
	}
	if quick {
		return nil
	}

	// Large-N cells, the default engine only: the naive engine is
	// excluded (an O(N·K) sweep per selection is hours here).
	// MaxMoves=1000 keeps the N=10^5 cell in whole seconds while
	// amortizing the one-time table build enough that the per-move
	// machinery dominates.
	{
		const bigN, bigK, bigMoves = 100000, 256, 1000
		db := workload.Config{N: bigN, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
		a, err := randomAllocation(db, bigK, 7)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("CDSScale/N=%d/K=%d/incremental", bigN, bigK)
		if _, err := benchCDS(rep, name, &core.CDS{MaxMoves: bigMoves}, a); err != nil {
			return err
		}
	}

	// The N=10^6/K=1024 cell: the paper's environment scaled three
	// orders past its tables. One iteration — the table build alone is
	// N·K work, and a multi-iteration budget would push `make bench`
	// past its patience for one data point.
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		return err
	}
	defer func() { _ = flag.Set("test.benchtime", bt) }()
	{
		const hugeN, hugeK, hugeMoves = 1000000, 1024, 100
		db := workload.Config{N: hugeN, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
		a, err := randomAllocation(db, hugeK, 7)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("CDSScale/N=%d/K=%d/incremental", hugeN, hugeK)
		if _, err := benchCDS(rep, name, &core.CDS{MaxMoves: hugeMoves}, a); err != nil {
			return err
		}
	}
	return nil
}

// sameMoves reports whether two move traces are bit-for-bit identical:
// same length, and every move agrees on position, groups and the exact
// float bits of its Δc and cost chain.
func sameMoves(a, b []core.Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Pos != y.Pos || x.From != y.From || x.To != y.To ||
			math.Float64bits(x.Reduction) != math.Float64bits(y.Reduction) ||
			math.Float64bits(x.CostBefore) != math.Float64bits(y.CostBefore) ||
			math.Float64bits(x.CostAfter) != math.Float64bits(y.CostAfter) {
			return false
		}
	}
	return true
}

// cdsGate is the bit-identity gate: the same refinement under
// StrategyNaive (the paper's literal scan) and under the default
// engine must produce bit-for-bit identical move traces. At the gate's
// K (32 quick, 64 full) the default runs the candidate tables, so the
// gate pins the table engine to the oracle where CI can see it. A
// divergence returns an error before the report gates, failing the
// run.
func cdsGate(rep *report, quick bool) error {
	n, k, maxMoves := 20000, 64, 200
	if quick {
		n, k, maxMoves = 6000, 32, 60
	}
	db := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
	a, err := randomAllocation(db, k, 7)
	if err != nil {
		return err
	}
	_, naive, err := (&core.CDS{Strategy: core.StrategyNaive, MaxMoves: maxMoves}).RefineWithTrace(a)
	if err != nil {
		return err
	}
	_, def, err := (&core.CDS{MaxMoves: maxMoves}).RefineWithTrace(a)
	if err != nil {
		return err
	}
	if !sameMoves(naive, def) {
		return fmt.Errorf("bit-identity gate: default-engine trace diverges from StrategyNaive (N=%d K=%d, %d vs %d moves)", n, k, len(def), len(naive))
	}
	rep.Derived["cds_gate_bit_identity_moves"] = float64(len(naive))
	return nil
}

// tables2to4 reproduces the paper's worked example end to end and
// reports the refined cost (the paper's 22.29).
func tables2to4(rep *report) error {
	db := core.PaperExampleDatabase()
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		var cost float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := core.NewDRPExampleConsistent().Allocate(db, core.PaperExampleK)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			refined, err := core.NewCDS().Refine(a)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			cost = core.Cost(refined)
		}
		b.ReportMetric(cost, "cost")
	})
	if benchErr != nil {
		return benchErr
	}
	rep.record("Tables2to4", br)
	return nil
}

// timeAllocator benchmarks one allocator on db/k, reporting the
// resulting waiting time as Wb_s exactly like the go-test harness.
func timeAllocator(rep *report, name string, alg core.Allocator, db *core.Database, k int) error {
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		var wb float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := alg.Allocate(db, k)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			wb = core.WaitingTime(a, workload.PaperBandwidth)
		}
		b.ReportMetric(wb, "Wb_s")
	})
	if benchErr != nil {
		return benchErr
	}
	rep.record(name, br)
	return nil
}

// figureTimings runs the paper's execution-time comparisons
// (Figures 6 and 7). GOPT is serial (Workers: 1) for comparability
// and skipped entirely under -quick: at 600 generations it dwarfs the
// rest of the run without informing the CDS trajectory.
func figureTimings(rep *report, quick bool) error {
	serialGOPT := func() core.Allocator {
		return &gopt.GOPT{PopulationSize: 120, Generations: 600, Stagnation: 80, Polish: true, Seed: 11, Workers: 1}
	}
	fig6DB := workload.PaperDefaults(11).MustGenerate()
	for _, k := range []int{4, 6, 8, 10} {
		if err := timeAllocator(rep, fmt.Sprintf("Figure6/K=%d/DRP-CDS", k), core.NewDRPCDS(), fig6DB, k); err != nil {
			return err
		}
		if quick {
			continue
		}
		if err := timeAllocator(rep, fmt.Sprintf("Figure6/K=%d/GOPT", k), serialGOPT(), fig6DB, k); err != nil {
			return err
		}
	}
	for _, n := range []int{60, 120, 180} {
		db := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 11}.MustGenerate()
		if err := timeAllocator(rep, fmt.Sprintf("Figure7/N=%d/DRP-CDS", n), core.NewDRPCDS(), db, 6); err != nil {
			return err
		}
		if quick {
			continue
		}
		if err := timeAllocator(rep, fmt.Sprintf("Figure7/N=%d/GOPT", n), serialGOPT(), db, 6); err != nil {
			return err
		}
	}
	return nil
}

// traceOverhead measures what the diversetrace probes cost the CDS hot
// path. Two cells refine the same N=1000/K=16 start with the tracer
// disabled and enabled; DisabledProbe prices one disabled Start/End
// pair in isolation. The committed disabled-path number is analytic
// rather than a difference of two noisy cell timings: one Refine with
// MaxMoves moves executes at most MaxMoves+2 probes (the Enabled check
// at entry, one per move, the final End), so
// probe_ns x (MaxMoves+2) / cell_ns bounds the relative overhead
// without subtracting near-equal measurements.
func traceOverhead(rep *report) error {
	const maxMoves = 200
	db := workload.Config{N: 1000, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
	a, err := randomAllocation(db, 16, 7)
	if err != nil {
		return err
	}
	cell := make(map[string]float64, 2)
	for _, mode := range []string{"disabled", "enabled"} {
		tr := trace.New(trace.Config{Capacity: 1 << 15})
		if mode == "disabled" {
			tr.Disable()
		}
		cds := &core.CDS{Strategy: core.StrategyIncremental, MaxMoves: maxMoves, Tracer: tr}
		var benchErr error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cds.Refine(a); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return benchErr
		}
		rep.record("TraceOverhead/CDSScale/N=1000/K=16/"+mode, br)
		cell[mode] = nsPerOp(br)
	}

	// One disabled probe: Start on a disabled tracer returns the
	// inactive zero Span and End on it is a no-op — the whole pair is
	// an atomic load plus branches. The family benchtime can be as low
	// as one iteration, far below timer resolution for a nanosecond
	// probe, so each op runs a fixed batch and the batch is divided
	// back out.
	const probeBatch = 1000
	tr := trace.New(trace.Config{Capacity: 8})
	tr.Disable()
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < probeBatch; j++ {
				sp := tr.Start("bench_probe")
				sp.End()
			}
		}
	})
	rep.record("TraceOverhead/DisabledProbe_x1000", br)
	probe := nsPerOp(br) / probeBatch

	if d := cell["disabled"]; d > 0 {
		rep.Derived["trace_overhead_disabled_pct"] = probe * float64(maxMoves+2) / d * 100
		rep.Derived["trace_overhead_enabled_pct"] = (cell["enabled"] - d) / d * 100
	}
	return nil
}

// nsPerOp keeps sub-nanosecond resolution; BenchmarkResult.NsPerOp
// truncates to whole nanoseconds, useless for a probe that costs ~2ns.
func nsPerOp(br testing.BenchmarkResult) float64 {
	if br.N <= 0 {
		return 0
	}
	return float64(br.T.Nanoseconds()) / float64(br.N)
}
