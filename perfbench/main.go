// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed window, checks every output for
// correctness, and prints a human-readable report followed by one
// JSON result line:
//
//	bash perfbench/run.sh --workload access --seed 7 --seconds 12 --trace 0
//
// Workloads (see workloads below): plan-paper times the allocator (DRP
// then CDS to a local optimum) and scores each result against a lower
// bound; access serves the paper's default program over loopback TCP
// to closed-loop clients; fanout drains a fast one-channel broadcast
// into hundreds of in-process subscribers.
//
// --trace 0 reports the end-to-end metrics (metrics.go: endToEnd);
// --trace 1 runs the same workload with spans, a layer-labelled CPU
// profile and a runtime sampler, and reports the per-layer metrics
// (perLayer). Every run also writes its full report, with host,
// sample counts and every figure, under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"diversecast/internal/obs/trace"
)

// env is one run's context, shared by the workloads.
type env struct {
	seed   int64
	window time.Duration
	t      *tracing // nil in an untraced run
	r      *report
}

// setup runs a workload's set-up repeats times and records the median
// as setup_s. teardown (if any) releases one set-up's state before the
// next, outside the timer; the last set-up's state is the one measured.
func (e *env) setup(repeats int, build func(parent trace.Span) error, teardown func()) error {
	times := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		sp := e.t.tracer().Start(spanSetup, trace.Int("repeat", int64(i)))
		t0 := time.Now()
		err := build(sp)
		times = append(times, time.Since(t0).Seconds())
		sp.End()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	e.r.SetupRepeats = repeats
	e.r.add("setup_s", newDist(times).median(), "s", repeats)
	return nil
}

// runner is one workload's implementation.
type runner interface{ run(e *env) error }

// workloads are the benchmark's workloads by name. BENCHMARK.json
// records why each exists.
//
// There is no large-instance plan workload (N=5000, K=32, where CDS
// table repair does nearly all the work): on a shared two-core host the
// median of one such Allocate moved by a fifth to a quarter between
// runs minutes apart, past any bound the benchmark may set.
var workloads = map[string]runner{
	"plan-paper": planWorkload{pool: 4096, setups: 9},
	"access":     accessWorkload{},
	"fanout":     fanoutWorkload{},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: plan-paper, access or fanout")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "measured window in seconds")
		traced  = flag.Int("trace", 0, "1 runs with spans, a labelled CPU profile and the runtime sampler, and reports per-layer metrics")
		out     = flag.String("out", "", "directory for the full report and the span file (none when empty)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err := selfCheck(*seed); err != nil {
		return fmt.Errorf("lower-bound self-check: %w", err)
	}
	e := &env{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		t:      newTracing(*traced == 1),
		r:      newReport(*name, *seed, *seconds, *traced == 1),
	}
	if err := w.run(e); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if *out != "" {
		if err := e.save(*out); err != nil {
			return err
		}
	}
	e.r.printHuman(os.Stdout)
	defs := endToEnd
	if e.t != nil {
		defs = perLayer
	}
	line, err := e.r.result(defs)
	if err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !e.r.Correct {
		return errors.New("outputs failed their correctness checks")
	}
	return nil
}

// save writes the full report and, for a traced run, the span file.
func (e *env) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", e.r.Workload, e.r.Seed, btoi(e.r.Traced)))
	if e.t != nil {
		e.r.SpanFile = base + "-spans.json"
		if err := e.t.writeSpans(e.r.SpanFile); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := e.r.writeFile(base + ".json"); err != nil {
		return fmt.Errorf("writing the report: %w", err)
	}
	return nil
}
