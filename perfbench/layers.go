package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"diversecast/internal/obs/trace"
)

// Span names the benchmark records around its calls into each layer.
// One operation's spans share a parent (bench_allocate or
// bench_request).
const (
	spanSetup    = "bench_setup"
	spanGenerate = "bench_generate"
	spanAllocate = "bench_allocate"
	spanDRP      = "bench_drp"
	spanCDS      = "bench_cds"
	spanBuild    = "bench_build"
	spanServe    = "bench_serve"
	spanRequest  = "bench_request"
	spanTune     = "bench_tune"
	spanWait     = "bench_wait"
	spanVerify   = "bench_verify"
)

// Layer labels for the CPU profile of a traced run. Goroutines started
// under a label (casters, handshakes and write loops under Serve and
// Attach) inherit it.
const (
	labelKey    = "layer"
	layerCore   = "core"
	layerServer = "netcast_server"
	layerClient = "netcast_client"
)

// spanRingSlots bounds the span file to the last few hundred
// operations: it is a sample to inspect, while the per-layer figures
// come from timings the benchmark takes around every call.
const spanRingSlots = 1 << 13

// tracing is the traced run's instrumentation: an in-memory span ring
// shared by the benchmark and the program's own tracer fields, a
// pprof-labelled CPU profile, and a runtime sampler. A nil *tracing is
// the untraced run; every method is then a no-op.
//
// The netcast workloads measure an untraced half-window before the
// traced one, against the same server; pause and resume switch the
// tracer off and on around it, keeping what it recorded so far.
type tracing struct {
	tr      *trace.Tracer
	cfg     trace.Config
	kept    []trace.Record
	dropped uint64
	paused  bool
	profile bytes.Buffer
	sampler *runtimeSampler
}

// sinceClock stamps records in nanoseconds since a fixed instant, so
// records kept across a pause share one timeline.
type sinceClock struct{ base time.Time }

func (c sinceClock) Now() int64 { return int64(time.Since(c.base)) }

func newTracing(traced bool) *tracing {
	if !traced {
		return nil
	}
	cfg := trace.Config{Capacity: spanRingSlots, Clock: sinceClock{time.Now()}}
	t := &tracing{tr: trace.New(cfg)}
	cfg.RunID = t.tr.RunID()
	t.cfg = cfg
	return t
}

// pause stops recording and keeps the records so far.
func (t *tracing) pause() {
	if t == nil || t.paused {
		return
	}
	s := t.tr.Snapshot()
	t.kept = append(t.kept, s.Records...)
	t.dropped += s.Dropped
	t.tr.Disable()
	t.paused = true
}

// resume starts recording again on a fresh ring.
func (t *tracing) resume() {
	if t == nil || !t.paused {
		return
	}
	t.tr.Enable(t.cfg)
	t.paused = false
}

// snapshot returns every record of the run, kept ones first.
func (t *tracing) snapshot() trace.Snapshot {
	snap := trace.Snapshot{RunID: t.cfg.RunID, Records: t.kept, Dropped: t.dropped}
	if !t.paused {
		s := t.tr.Snapshot()
		snap.Records = append(snap.Records, s.Records...)
		snap.Dropped += s.Dropped
	}
	return snap
}

// tracer returns the run's span tracer, for the benchmark's spans and
// the program's Tracer fields; nil when untraced, which the trace
// package treats as disabled.
func (t *tracing) tracer() *trace.Tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// label runs f with the goroutine labelled as layer; goroutines f
// starts inherit the label.
func label(layer string, f func()) {
	pprof.Do(context.Background(), pprof.Labels(labelKey, layer), func(context.Context) { f() })
}

// beginWindow starts the CPU profile and the runtime sampler.
func (t *tracing) beginWindow() error {
	if t == nil {
		return nil
	}
	t.sampler = startRuntimeSampler()
	return pprof.StartCPUProfile(&t.profile)
}

// endWindow stops the profile and sampler and records their figures.
func (t *tracing) endWindow(r *report) error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	t.sampler.stop(r)
	shares, total, err := labelCPU(t.profile.Bytes())
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	share := func(layer string) float64 {
		if total == 0 {
			return 0
		}
		return float64(shares[layer]) / float64(total)
	}
	r.add("core.cpu_share", share(layerCore), "ratio", 0)
	r.add("netcast.server_cpu_share", share(layerServer), "ratio", 0)
	r.add("netcast.client_cpu_share", share(layerClient), "ratio", 0)
	r.add("cpu.profile_ms", float64(total)/1e6, "ms", 0)
	r.LayerCPUNS = shares
	return nil
}

// writeSpans writes the span ring as a Chrome trace_event file.
func (t *tracing) writeSpans(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, t.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSampler polls the Go runtime for heap size and goroutine
// count peaks and counts GC cycles over a window.
type runtimeSampler struct {
	done chan struct{}
	wg   sync.WaitGroup

	gc0         uint64
	heapPeak    uint64
	goroutPeak  uint64
	sampleCount int
}

const runtimeSampleEvery = 20 * time.Millisecond

var runtimeSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() (heap, goroutines, gcs uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{done: make(chan struct{})}
	_, _, rs.gc0 = readRuntime()
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		tick := time.NewTicker(runtimeSampleEvery)
		defer tick.Stop()
		for {
			rs.sample()
			select {
			case <-rs.done:
				return
			case <-tick.C:
			}
		}
	}()
	return rs
}

func (rs *runtimeSampler) sample() {
	heap, g, _ := readRuntime()
	rs.heapPeak = max(rs.heapPeak, heap)
	rs.goroutPeak = max(rs.goroutPeak, g)
	rs.sampleCount++
}

func (rs *runtimeSampler) stop(r *report) {
	close(rs.done)
	rs.wg.Wait()
	rs.sample()
	_, _, gc1 := readRuntime()
	r.add("runtime.heap_peak_mb", float64(rs.heapPeak)/(1<<20), "MB", rs.sampleCount)
	r.add("runtime.goroutines_peak", float64(rs.goroutPeak), "count", rs.sampleCount)
	r.add("runtime.gc_cycles", float64(gc1-rs.gc0), "count", 0)
}

// cpuSeconds reads the whole process's consumed CPU (user + system).
// getrusage(RUSAGE_SELF) fails only on a bad pointer, which this call
// cannot pass, so an error reads as zero CPU.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
}
