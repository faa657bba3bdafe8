package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diversecast/internal/core"
	"diversecast/internal/netcast"
	"diversecast/internal/obs/trace"
	"diversecast/internal/workload"
)

// The access workload serves the paper's default configuration
// (N=120, θ=0.8, Φ=2, K=6, b=10) on loopback and runs closed-loop
// clients against it. The database is fixed: W_b of PaperDefaults
// varies by a fifth between generation seeds, which would swamp any
// serving change, so the run seed draws the request stream instead.
const (
	accessDBSeed    = 1
	accessK         = 6
	accessTimeScale = 0.001
	accessClients   = 2
	accessSetups    = 101
	requestTimeout  = 2 * time.Second
)

type accessWorkload struct{}

// request is one completed client request.
type request struct {
	pos        int
	call, done time.Time // TuneItem called, WaitForItem returned
	tune       time.Duration
	rec        reception
	receptions int64
	resyncs    int64
	traced     bool
}

// clientLog is what one client goroutine observed.
type clientLog struct {
	reqs     []request
	failed   []error
	wrong    []error
	attempts int64
}

func (accessWorkload) run(e *env) error {
	var (
		st setupTimes
		s  *served
	)
	cfg := netcast.ServerConfig{TimeScale: accessTimeScale}
	gen := func() (*core.Database, error) { return workload.PaperDefaults(accessDBSeed).Generate() }
	err := e.setup(accessSetups, func(parent trace.Span) (err error) {
		s, err = e.serve(parent, gen, accessK, cfg, true, &st)
		return err
	}, func() {
		if err := s.close(); err != nil {
			e.r.note(fmt.Errorf("closing a set-up server: %w", err))
		}
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := s.close(); err != nil {
			e.r.fail(fmt.Errorf("closing the server: %w", err))
		}
	}()
	st.record(e.r)

	// A traced run measures an untraced half, then a traced one.
	halves := []bool{false}
	if e.t != nil {
		halves = []bool{false, true}
	}
	half := e.window / time.Duration(len(halves))
	var logs []clientLog
	if err := e.t.beginWindow(); err != nil {
		return err
	}
	var cpuHalf []float64
	before := readCounters(s)
	for _, traced := range halves {
		if traced {
			e.t.resume()
		} else {
			e.t.pause()
		}
		c0 := cpuSeconds()
		logs = append(logs, e.runClients(s, half, traced)...)
		cpuHalf = append(cpuHalf, cpuSeconds()-c0)
	}
	counters := readCounters(s).delta(before)
	if err := e.t.endWindow(e.r); err != nil {
		return err
	}
	var reqs []request
	for _, l := range logs {
		reqs = append(reqs, l.reqs...)
		e.r.Attempted += l.attempts
		for _, err := range l.failed {
			e.r.fail(err)
		}
		for _, err := range l.wrong {
			e.r.wrong(err)
		}
	}
	if len(reqs) == 0 {
		return errors.New("no request completed")
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].done.Before(reqs[j].done) })
	// ops_per_cpu_s comes from the untraced (first) half.
	return recordAccess(e, s, reqs, cpuHalf[0], counters)
}

// runClients runs the closed-loop clients for d and returns their logs.
func (e *env) runClients(s *served, d time.Duration, traced bool) []clientLog {
	cdf := make([]float64, s.db.Len())
	var acc float64
	for i := range cdf {
		acc += s.db.Item(i).Freq
		cdf[i] = acc
	}
	logs := make([]clientLog, accessClients)
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	for i := range logs {
		wg.Add(1)
		// Each client and half gets its own stream, drawn from the seed.
		rng := rand.New(rand.NewSource(e.seed*7919 + int64(i)*31 + int64(len(logs))*btoi(traced)))
		go label(layerClient, func() {
			defer wg.Done()
			for !stop.Load() {
				logs[i].attempts++
				e.request(s, cdf, rng, traced, &logs[i])
			}
		})
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return logs
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// draw picks an item position by access frequency.
func draw(rng *rand.Rand, cdf []float64) int {
	return min(sort.SearchFloat64s(cdf, rng.Float64()*cdf[len(cdf)-1]), len(cdf)-1)
}

// request runs one TuneItem → WaitForItem → VerifyPayload → Close cycle.
func (e *env) request(s *served, cdf []float64, rng *rand.Rand, traced bool, log *clientLog) {
	pos := draw(rng, cdf)
	id := s.db.Item(pos).ID
	ch, _, err := s.sched.slotOf(pos)
	if err != nil {
		log.wrong = append(log.wrong, err)
		return
	}
	var sp trace.Span
	if traced {
		sp = e.t.tracer().Start(spanRequest, trace.Int("item", int64(id)), trace.Int("channel", int64(ch)))
		defer sp.End()
	}
	call := time.Now()
	tsp := sp.Child(spanTune)
	c, err := netcast.TuneItem(s.srv.Addr().String(), ch, id, requestTimeout)
	tune := time.Since(call)
	tsp.End()
	if err != nil {
		log.failed = append(log.failed, err)
		return
	}
	wsp := sp.Child(spanWait)
	rec, _, err := c.WaitForItem(id, requestTimeout)
	done := time.Now()
	wsp.End()
	stats := c.Stats()
	if cerr := c.Close(); cerr != nil {
		log.failed = append(log.failed, fmt.Errorf("closing client: %w", cerr))
		return
	}
	if err != nil {
		log.failed = append(log.failed, fmt.Errorf("waiting for item %d: %w", id, err))
		return
	}
	vsp := sp.Child(spanVerify)
	defer vsp.End()
	if err := netcast.VerifyPayload(rec); err != nil {
		log.wrong = append(log.wrong, err)
		return
	}
	placed, err := s.sched.place(rec)
	if err != nil {
		log.wrong = append(log.wrong, err)
		return
	}
	if rec.Begin.ItemID != id {
		log.wrong = append(log.wrong, fmt.Errorf("asked for item %d, received %d", id, rec.Begin.ItemID))
		return
	}
	log.reqs = append(log.reqs, request{
		pos: pos, call: call, done: done, tune: tune, rec: placed,
		receptions: stats.Receptions, resyncs: stats.Resyncs, traced: traced,
	})
}

// recordAccess derives the access figures from the completed requests.
func recordAccess(e *env, s *served, reqs []request, cpu float64, c serverCounters) error {
	r, sc := e.r, s.sched
	recs := make([]reception, len(reqs))
	for i, q := range reqs {
		recs[i] = q.rec
	}
	epoch, _ := sc.calibrate(recs)
	beginLate, endLate := sc.lateness(epoch, recs)

	// End-to-end figures come from untraced requests; layer figures
	// from all of them.
	var (
		plainWall, tracedWall, accessS, tunes []float64
		realized, implied, receptions         float64
		misses, plain                         int
		completeness                          = 1.0
	)
	for _, q := range reqs {
		t := sc.virtualAt(epoch, q.call)
		k, err := sc.impliedCycle(q.pos, t)
		if err != nil {
			return err
		}
		if q.rec.cycle > k {
			misses++
		}
		tunes = append(tunes, us(q.tune))
		receptions += float64(q.receptions)
		completeness = math.Min(completeness, float64(q.receptions)/float64(q.receptions+q.resyncs))
		wall := ms(q.done.Sub(q.call))
		if q.traced {
			tracedWall = append(tracedWall, wall)
			continue
		}
		w, err := sc.prog.WaitFor(q.pos, t)
		if err != nil {
			return err
		}
		plain++
		plainWall = append(plainWall, wall)
		accessS = append(accessS, q.done.Sub(q.call).Seconds()/sc.scale)
		realized += q.done.Sub(q.call).Seconds() / sc.scale
		implied += w
	}
	r.addDist("access_p50_s", "access_p99_s", "s", accessS)
	r.add("access_stretch", realized/implied, "ratio", plain)
	r.addDist("lateness_p50_us", "lateness_p99_us", "us", endLate)
	r.add("fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio", int(r.Attempted))
	r.addLatency(plainWall)
	r.add("ops_per_cpu_s", float64(plain)/cpu, "1/s", plain)

	r.addDist("netcast.tune_us_p50", "netcast.tune_us_p99", "us", tunes)
	r.add("netcast.tune_miss_ratio", float64(misses)/float64(len(reqs)), "ratio", len(reqs))
	r.addDist("netcast.begin_lateness_us_p50", "netcast.begin_lateness_us_p99", "us", beginLate)
	r.add("netcast.client_receptions_per_request", receptions/float64(len(reqs)), "ratio", len(reqs))
	r.add("netcast.completeness_min", completeness, "ratio", len(reqs))
	r.add("broadcast.predicted_wb_s", core.WaitingTime(s.alloc, paperBandwidth), "s", 0)
	recordServer(r, c)
	rep := s.mon.Report()
	var waits int64
	var regret float64
	for _, ch := range rep.Channels {
		waits += ch.Waits
		regret += ch.RegretPct * float64(ch.Waits)
	}
	r.add("costmon.waits_recorded", float64(waits), "count", 0)
	r.add("costmon.regret_pct_mean", regret/float64(max(waits, 1)), "%", int(waits))
	if e.t != nil {
		r.add("trace.overhead_pct", overheadPct(plainWall, tracedWall), "%", len(tracedWall))
		if ns, ok := r.LayerCPUNS[layerClient]; ok {
			r.add("netcast.client_cpu_us_per_request", float64(ns)/1e3/float64(len(reqs)), "us", len(reqs))
		}
	}
	return nil
}
