package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// figure is one named measurement with its unit and sample count.
type figure struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (0: a single
	// measurement or a count).
	N int `json:"n,omitempty"`
	// Q is the percentile a tail value was read at (see dist.tail).
	Q float64 `json:"q,omitempty"`
}

// hostInfo is the run's environment, recorded with every result.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

// report collects one run's figures and correctness accounting.
type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	// SetupRepeats is how many times set-up ran; setup_s is their
	// median.
	SetupRepeats int `json:"setup_repeats"`
	// Attempted and Failed count the workload's operations (see
	// fail_ratio); Correct is false after any wrong output.
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Figures   []figure `json:"figures"`
	// LayerCPUNS is the traced window's profiled CPU by layer label
	// ("" for unlabelled goroutines: the benchmark and the runtime).
	LayerCPUNS map[string]int64 `json:"layer_cpu_ns,omitempty"`
	SpanFile   string           `json:"span_file,omitempty"`
}

func newReport(workload string, seed int64, seconds int, traced bool) *report {
	return &report{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Host: hostInfo{
			Cores:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		},
		Correct: true,
	}
}

// add records a figure, replacing an earlier one of the same name.
func (r *report) add(name string, value float64, unit string, n int) {
	r.addQ(name, value, unit, n, 0)
}

func (r *report) addQ(name string, value float64, unit string, n int, q float64) {
	f := figure{Name: name, Value: value, Unit: unit, N: n, Q: q}
	for i := range r.Figures {
		if r.Figures[i].Name == name {
			r.Figures[i] = f
			return
		}
	}
	r.Figures = append(r.Figures, f)
}

// addDist records a sample set's median and its tail, read at the
// highest percentile the sample count supports.
func (r *report) addDist(p50, tail, unit string, xs []float64) {
	d := newDist(xs)
	r.add(p50, d.median(), unit, len(d))
	q, v := d.tail()
	r.addQ(tail, v, unit, len(d), q)
}

// addLatency records the unit operation's end-to-end latency from
// samples in the order they were taken: the median of the run, and the
// tail as windowedTail reads it.
func (r *report) addLatency(xs []float64) {
	r.add("latency_p50_ms", newDist(xs).median(), "ms", len(xs))
	q, v := windowedTail(xs)
	r.addQ("latency_tail_ms", v, "ms", len(xs), q)
}

func (r *report) get(name string) (figure, bool) {
	for _, f := range r.Figures {
		if f.Name == name {
			return f, true
		}
	}
	return figure{}, false
}

// problemCap bounds the problems kept verbatim; the counts stay exact.
const problemCap = 20

func (r *report) note(err error) {
	if len(r.Problems) < problemCap {
		r.Problems = append(r.Problems, err.Error())
	}
}

// fail counts a failed operation.
func (r *report) fail(err error) { r.failN(1, err) }

// failN counts n failed operations with one cause.
func (r *report) failN(n int64, err error) {
	r.Failed += n
	r.note(err)
}

// wrong records an incorrect output: the run is marked incorrect.
func (r *report) wrong(err error) {
	r.Correct = false
	r.Failed++
	r.note(err)
}

// printHuman writes every figure, one per line, with unit and sample
// count.
func (r *report) printHuman(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %d traced %v: %d cores, GOMAXPROCS %d, %s, setup repeats %d\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Host.Cores, r.Host.GOMAXPROCS, r.Host.GoVersion, r.SetupRepeats)
	figs := append([]figure(nil), r.Figures...)
	sort.SliceStable(figs, func(i, j int) bool { return figs[i].Name < figs[j].Name })
	for _, f := range figs {
		line := fmt.Sprintf("  %-40s %14.6g %-6s", f.Name, f.Value, f.Unit)
		if f.N > 0 {
			line += fmt.Sprintf(" n=%d", f.N)
		}
		if f.Q > 0 {
			line += fmt.Sprintf(" at p%g", f.Q*100)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}

// jsonValue is one metric of the result line.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// result selects the catalog's metrics for the result line. A metric
// the run did not produce, produced in another unit, or produced as a
// non-finite number is an error: the line must carry every metric the
// catalog lists.
func (r *report) result(defs []metricDef) (resultLine, error) {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonValue{}}
	for _, d := range defs {
		name := d.name
		f, ok := r.get(name)
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", name)
		}
		if f.Unit != d.unit {
			return out, fmt.Errorf("metric %s measured in %s, catalogued in %s", name, f.Unit, d.unit)
		}
		if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			return out, fmt.Errorf("metric %s is %v", name, f.Value)
		}
		out.Metrics[name] = jsonValue{Value: f.Value, Unit: f.Unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// writeFile stores the full report as indented JSON.
func (r *report) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
