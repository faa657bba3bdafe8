package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// BENCHMARK.json describes this program: the same workloads, and the
// metrics of the result lines with the same units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(wl)
	sort.Strings(have)
	if !equal(wl, have) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wl, have)
	}
	check := func(kind string, defs []metricDef, names, units, betters []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] || d.better != betters[i] {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, catalog %s %s %s",
					kind, i, names[i], units[i], betters[i], d.name, d.unit, d.better)
			}
		}
	}
	var n, u, bt []string
	for _, m := range b.EndToEnd {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("end_to_end", endToEnd, n, u, bt)
	n, u, bt = nil, nil, nil
	for _, m := range b.PerLayer {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("per_layer", perLayer, n, u, bt)
	for _, d := range layerOnly {
		for _, m := range append(names(endToEnd), names(perLayer)...) {
			if d.name == m {
				t.Errorf("%s is both layer-only and on the result line", m)
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CPU burned under a layer label shows up under that label.
func TestLabelCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var sink float64
	label(layerCore, func() {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				sink += float64(i) * 1.0000001
			}
		}
	})
	pprof.StopCPUProfile()
	byLayer, total, err := labelCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || byLayer[layerCore] < total/2 {
		t.Errorf("core label holds %d of %d profiled ns (sink %v)", byLayer[layerCore], total, sink > 0)
	}
}
