package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/netcast"
	"diversecast/internal/obs"
	"diversecast/internal/obs/costmon"
	"diversecast/internal/obs/trace"
)

// served is one set-up of a netcast workload: the database, its
// allocation and program, and the running server with its own metrics
// registry.
type served struct {
	db    *core.Database
	alloc *core.Allocation
	prog  *broadcast.Program
	srv   *netcast.Server
	reg   *obs.Registry
	mon   *costmon.Monitor
	sched schedule
}

func (s *served) close() error { return s.srv.Close() }

// setupTimes collects the per-layer timings of repeated set-ups.
type setupTimes struct {
	generateMS, drpUS, cdsUS, buildMS, serveMS []float64
	drpGap, gap, moves                         []float64
}

func (st *setupTimes) record(r *report) {
	med := func(xs []float64) float64 { return newDist(xs).median() }
	n := len(st.generateMS)
	r.add("workload.generate_ms", med(st.generateMS), "ms", n)
	r.add("core.drp_us_p50", med(st.drpUS), "us", n)
	r.add("core.cds_us_p50", med(st.cdsUS), "us", n)
	r.add("core.drp_gap_mean", mean(st.drpGap), "ratio", n)
	r.add("gap_mean", mean(st.gap), "ratio", n)
	r.add("core.gap_max", maxOf(st.gap), "ratio", n)
	r.add("core.cds_moves_mean", mean(st.moves), "count", n)
	r.add("broadcast.build_ms", med(st.buildMS), "ms", n)
	r.add("netcast.serve_ms", med(st.serveMS), "ms", n)
}

// timed runs f under span sp, ends it, and appends f's duration, in
// unit, to the samples.
func timed(sp trace.Span, unit time.Duration, samples *[]float64, f func() error) error {
	t0 := time.Now()
	err := f()
	*samples = append(*samples, float64(time.Since(t0))/float64(unit))
	sp.End()
	return err
}

// serve generates a database, allocates it to k channels with DRP then
// CDS, builds the program and serves it on loopback. With telemetry
// the server gets a cost monitor, as bcastserver -telemetry runs it.
// The Serve call is labelled, so the server's goroutines carry the
// netcast_server label in the CPU profile.
func (e *env) serve(parent trace.Span, gen func() (*core.Database, error), k int, cfg netcast.ServerConfig, telemetry bool, st *setupTimes) (*served, error) {
	s := &served{reg: obs.NewRegistry()}
	err := timed(parent.Child(spanGenerate), time.Millisecond, &st.generateMS, func() (err error) {
		s.db, err = gen()
		return err
	})
	if err != nil {
		return nil, err
	}
	var a0 *core.Allocation
	err = timed(parent.Child(spanDRP), time.Microsecond, &st.drpUS, func() (err error) {
		a0, err = (&core.DRP{Tracer: e.t.tracer()}).Allocate(s.db, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	var moves []core.Move
	err = timed(parent.Child(spanCDS), time.Microsecond, &st.cdsUS, func() (err error) {
		s.alloc, moves, err = (&core.CDS{Tracer: e.t.tracer()}).RefineWithTrace(a0)
		return err
	})
	if err != nil {
		return nil, err
	}
	lb := lowerBound(s.db, k)
	gap, err := checkAllocation(s.alloc, k, lb)
	if err != nil {
		e.r.wrong(fmt.Errorf("served allocation: %w", err))
	}
	st.drpGap = append(st.drpGap, core.Cost(a0)/lb)
	st.gap = append(st.gap, gap)
	st.moves = append(st.moves, float64(len(moves)))
	err = timed(parent.Child(spanBuild), time.Millisecond, &st.buildMS, func() (err error) {
		s.prog, err = broadcast.Build(s.alloc, paperBandwidth, broadcast.ByPosition)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = timed(parent.Child(spanServe), time.Millisecond, &st.serveMS, func() (err error) {
		if telemetry {
			s.mon, err = costmon.New(costmon.Config{Items: s.db.Len(), Wait: costmon.WaitFirstDelivery, Registry: s.reg})
			if err != nil {
				return err
			}
			if err := s.mon.SetProgram(s.prog, s.db.Frequencies()); err != nil {
				return err
			}
		}
		cfg.Program, cfg.Metrics, cfg.CostMonitor, cfg.Tracer = s.prog, s.reg, s.mon, e.t.tracer()
		label(layerServer, func() { s.srv, err = netcast.Serve("127.0.0.1:0", cfg) })
		return err
	})
	if err != nil {
		return nil, err
	}
	s.sched = schedule{prog: s.prog, scale: cfg.TimeScale}
	return s, nil
}

// serverCounters sums the server's per-channel counters and merges its
// subscriber-lag histograms, read from the registry /metrics exposes.
type serverCounters struct {
	framesSent, framesBroadcast, resyncs, lagDrops, handshakeFailures int64
	lag                                                               obs.HistogramSnapshot
}

func readCounters(s *served) serverCounters {
	snap := s.reg.Snapshot()
	c := serverCounters{handshakeFailures: snap.Counter("netcast_handshake_failures_total")}
	for ch := range s.prog.Channels {
		l := `{channel="` + strconv.Itoa(ch) + `"}`
		c.framesSent += snap.Counter("netcast_frames_sent_total" + l)
		c.framesBroadcast += snap.Counter("netcast_frames_broadcast_total" + l)
		c.resyncs += snap.Counter("netcast_resyncs_total" + l)
		c.lagDrops += snap.Counter("netcast_lag_drops_total" + l)
		h := snap.Histograms["netcast_subscriber_lag_frames"+l]
		if c.lag.Bins == nil {
			c.lag = obs.HistogramSnapshot{Lo: h.Lo, Hi: h.Hi, Bins: make([]int64, len(h.Bins))}
		}
		for i, b := range h.Bins {
			c.lag.Bins[i] += b
		}
		c.lag.Under += h.Under
		c.lag.Over += h.Over
		c.lag.Count += h.Count
		c.lag.Sum += h.Sum
	}
	return c
}

// histQuantile is obs.Histogram.Quantile over a snapshot: uniform
// within bins, underflow at Lo, overflow at Hi.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 || len(h.Bins) == 0 {
		return 0
	}
	target := q * float64(h.Count)
	cum := float64(h.Under)
	if cum >= target {
		return h.Lo
	}
	width := (h.Hi - h.Lo) / float64(len(h.Bins))
	for i, c := range h.Bins {
		next := cum + float64(c)
		if next >= target && c > 0 {
			return h.Lo + (float64(i)+(target-cum)/float64(c))*width
		}
		cum = next
	}
	return h.Hi
}

// recordServer reports the server-side layer figures over a window.
func recordServer(r *report, c serverCounters) {
	r.add("netcast.lag_frames_p50", histQuantile(c.lag, 0.5), "frames", int(c.lag.Count))
	r.add("netcast.lag_frames_p99", histQuantile(c.lag, 0.99), "frames", int(c.lag.Count))
	r.add("netcast.lag_frames_mean", c.lag.Sum/math.Max(float64(c.lag.Count), 1), "frames", int(c.lag.Count))
	r.add("netcast.frames_per_batch", float64(c.framesSent)/math.Max(float64(c.lag.Count), 1), "ratio", int(c.lag.Count))
	r.add("netcast.resyncs", float64(c.resyncs), "count", 0)
	r.add("netcast.lag_drops", float64(c.lagDrops), "count", 0)
	r.add("netcast.handshake_failures", float64(c.handshakeFailures), "count", 0)
}

// delta is the counter growth from a to b; the lag histogram is taken
// whole from b.
func (b serverCounters) delta(a serverCounters) serverCounters {
	return serverCounters{
		framesSent:        b.framesSent - a.framesSent,
		framesBroadcast:   b.framesBroadcast - a.framesBroadcast,
		resyncs:           b.resyncs - a.resyncs,
		lagDrops:          b.lagDrops - a.lagDrops,
		handshakeFailures: b.handshakeFailures - a.handshakeFailures,
		lag:               b.lag,
	}
}
