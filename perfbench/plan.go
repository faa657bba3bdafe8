package main

import (
	"math/rand"
	"time"

	"diversecast/internal/core"
	"diversecast/internal/obs/trace"
	"diversecast/internal/workload"
)

// planInstance is one allocation problem with its lower bound.
type planInstance struct {
	db *core.Database
	k  int
	lb float64
}

// paperShape draws an instance's N and K from the paper's Table 5
// regime.
func paperShape(rng *rand.Rand) (n, k int) {
	return []int{60, 120, 180}[rng.Intn(3)], []int{4, 6, 8, 10}[rng.Intn(4)]
}

// Paper simulation parameters (Table 5) shared by every instance.
const (
	paperTheta     = 0.8
	paperPhi       = 2.0
	paperBandwidth = workload.PaperBandwidth
)

// planInstances generates count Table 5 instances from seed.
func planInstances(seed int64, count int) ([]planInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]planInstance, count)
	for i := range out {
		n, k := paperShape(rng)
		db, err := workload.Config{N: n, Theta: paperTheta, Phi: paperPhi, Seed: rng.Int63()}.Generate()
		if err != nil {
			return nil, err
		}
		out[i] = planInstance{db: db, k: k, lb: lowerBound(db, k)}
	}
	return out, nil
}

// planWorkload runs DRP then CDS to a local optimum on a pool of
// instances in a closed loop on one goroutine. It bypasses broadcast
// and netcast.
type planWorkload struct {
	pool, setups int
}

// planTimes are the per-operation measurements of one plan run.
type planTimes struct {
	allocMS, gaps                    []float64
	drpUS, cdsUS, drpGaps, moves, wb []float64
	cdsTime                          time.Duration
	moveCount                        int
}

func (w planWorkload) run(e *env) error {
	var (
		pool  []planInstance
		genMS []float64
	)
	err := e.setup(w.setups, func(parent trace.Span) error {
		sp := parent.Child(spanGenerate)
		t0 := time.Now()
		p, err := planInstances(e.seed, w.pool)
		genMS = append(genMS, ms(time.Since(t0)))
		sp.End(trace.Int("instances", int64(w.pool)))
		pool = p
		return err
	}, nil)
	if err != nil {
		return err
	}
	e.r.add("workload.generate_ms", newDist(genMS).median(), "ms", len(genMS))

	// One untimed allocation first, so the CDS table pool and the code
	// paths are warm when the window opens.
	alloc := core.NewDRPCDS()
	if _, err := alloc.Allocate(pool[0].db, pool[0].k); err != nil {
		return err
	}
	var plain, traced planTimes
	if err := e.t.beginWindow(); err != nil {
		return err
	}
	cpu0, start := cpuSeconds(), time.Now()
	plainCPU := 0.0
	for i := 0; time.Since(start) < e.window; i++ {
		// A traced run alternates untraced and traced operations on the
		// same instance, so both halves see the same inputs.
		inst, withTrace := pool[i%len(pool)], false
		if e.t != nil {
			inst, withTrace = pool[(i/2)%len(pool)], i%2 == 1
		}
		e.r.Attempted++
		if withTrace {
			e.allocateTraced(inst, &traced)
			continue
		}
		var c0 float64
		if e.t != nil {
			c0 = cpuSeconds()
		}
		t0 := time.Now()
		a, err := alloc.Allocate(inst.db, inst.k)
		d := time.Since(t0)
		if e.t != nil {
			plainCPU += cpuSeconds() - c0
		}
		if err != nil {
			e.r.fail(err)
			continue
		}
		gap, err := checkAllocation(a, inst.k, inst.lb)
		if err != nil {
			e.r.wrong(err)
			continue
		}
		plain.allocMS = append(plain.allocMS, ms(d))
		plain.gaps = append(plain.gaps, gap)
	}
	cpu := cpuSeconds() - cpu0
	if err := e.t.endWindow(e.r); err != nil {
		return err
	}

	r := e.r
	r.addDist("alloc_p50_ms", "alloc_p99_ms", "ms", plain.allocMS)
	r.add("gap_mean", mean(plain.gaps), "ratio", len(plain.gaps))
	r.add("gap_max", maxOf(plain.gaps), "ratio", len(plain.gaps))
	r.addLatency(plain.allocMS)
	// Untraced runs spend the whole window allocating; a traced run
	// counts only the CPU of its untraced operations.
	if e.t != nil {
		cpu = plainCPU
	}
	r.add("ops_per_cpu_s", float64(len(plain.allocMS))/cpu, "1/s", len(plain.allocMS))
	r.add("fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio", int(r.Attempted))
	if e.t == nil {
		return nil
	}
	all := append(append([]float64(nil), plain.gaps...), traced.gaps...)
	r.add("core.gap_max", maxOf(all), "ratio", len(all))
	r.add("core.drp_us_p50", newDist(traced.drpUS).median(), "us", len(traced.drpUS))
	r.add("core.cds_us_p50", newDist(traced.cdsUS).median(), "us", len(traced.cdsUS))
	r.add("core.drp_gap_mean", mean(traced.drpGaps), "ratio", len(traced.drpGaps))
	r.add("core.cds_moves_mean", mean(traced.moves), "count", len(traced.moves))
	r.add("core.cds_ns_per_move", float64(traced.cdsTime)/float64(max(traced.moveCount, 1)), "ns", traced.moveCount)
	r.add("broadcast.predicted_wb_s", mean(traced.wb), "s", len(traced.wb))
	r.add("trace.overhead_pct", overheadPct(plain.allocMS, traced.allocMS), "%", len(traced.allocMS))
	recordNoServing(r)
	return nil
}

// recordNoServing reports the serving-layer figures of a workload that
// bypasses netcast: no requests, no frames, nothing owed.
func recordNoServing(r *report) {
	recordServer(r, serverCounters{})
	r.add("netcast.tune_miss_ratio", 0, "ratio", 0)
	r.add("netcast.client_receptions_per_request", 0, "ratio", 0)
	r.add("netcast.completeness_min", 1, "ratio", 0)
	r.add("costmon.regret_pct_mean", 0, "%", 0)
	r.add("costmon.waits_recorded", 0, "count", 0)
}

// allocateTraced runs DRP and CDS separately under spans and CPU
// labels, with the program's own core spans enabled, and records the
// per-layer figures of one operation.
func (e *env) allocateTraced(inst planInstance, pt *planTimes) {
	tr := e.t.tracer()
	sp := e.t.tracer().Start(spanAllocate, trace.Int("n", int64(inst.db.Len())), trace.Int("k", int64(inst.k)))
	defer sp.End()
	var (
		a0, a *core.Allocation
		moves []core.Move
		err   error
	)
	drp, cds := &core.DRP{Tracer: tr}, &core.CDS{Tracer: tr}
	dsp := sp.Child(spanDRP)
	t0 := time.Now()
	label(layerCore, func() { a0, err = drp.Allocate(inst.db, inst.k) })
	t1 := time.Now()
	dsp.End()
	if err != nil {
		e.r.fail(err)
		return
	}
	csp := sp.Child(spanCDS)
	label(layerCore, func() { a, moves, err = cds.RefineWithTrace(a0) })
	t2 := time.Now()
	csp.End(trace.Int("moves", int64(len(moves))))
	if err != nil {
		e.r.fail(err)
		return
	}
	gap, err := checkAllocation(a, inst.k, inst.lb)
	if err != nil {
		e.r.wrong(err)
		return
	}
	pt.allocMS = append(pt.allocMS, ms(t2.Sub(t0)))
	pt.gaps = append(pt.gaps, gap)
	pt.drpUS = append(pt.drpUS, us(t1.Sub(t0)))
	pt.cdsUS = append(pt.cdsUS, us(t2.Sub(t1)))
	pt.drpGaps = append(pt.drpGaps, core.Cost(a0)/inst.lb)
	pt.moves = append(pt.moves, float64(len(moves)))
	pt.cdsTime += t2.Sub(t1)
	pt.moveCount += len(moves)
	pt.wb = append(pt.wb, core.WaitingTime(a, paperBandwidth))
}

// overheadPct compares the medians of traced and untraced samples of
// the same operation.
func overheadPct(plain, traced []float64) float64 {
	return (newDist(traced).median()/newDist(plain).median() - 1) * 100
}
