package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diversecast/internal/core"
	"diversecast/internal/netcast"
	"diversecast/internal/obs/trace"
	"diversecast/internal/wire"
)

// The fanout workload drains a fast one-channel broadcast into many
// long-lived subscribers: in-process sinks attached with Server.Attach
// (the ring claim and write path without a kernel socket) plus two
// full-protocol TCP verifiers that check payload parity and lateness.
// 32 unit-size items at TimeScale 0.03 make 3 ms slots of three frames
// each, about 1000 frames a second.
const (
	fanoutItems     = 32
	fanoutTimeScale = 0.03
	fanoutSinks     = 256
	fanoutVerifiers = 2
	fanoutSetups    = 51
	fanoutSettle    = 300 * time.Millisecond
	bytesPerUnit    = 64
	// netcastChunk is netcast's payload chunk size: a slot carries
	// ceil(payload/netcastChunk) chunk frames between its begin and end
	// frames. The registry cross-check in accountSinks catches a
	// mismatch.
	netcastChunk = 4096
)

type fanoutWorkload struct{}

// fanoutDB is the fanout program's database: equal frequencies and
// unit sizes.
func fanoutDB() (*core.Database, error) {
	items := make([]core.Item, fanoutItems)
	for i := range items {
		items[i] = core.Item{ID: i + 1, Freq: 1 / float64(fanoutItems), Size: 1}
	}
	return core.NewDatabase(items)
}

// fanoutRun is one set-up: the server, its sinks and its verifiers.
type fanoutRun struct {
	s         *served
	sinks     []*sink
	verifiers []*verifier
}

func (f *fanoutRun) close() error {
	var errs []error
	for _, v := range f.verifiers {
		errs = append(errs, v.stop())
	}
	if f.s != nil {
		errs = append(errs, f.s.close())
	}
	return errors.Join(errs...)
}

func (fanoutWorkload) run(e *env) error {
	var (
		st setupTimes
		fr *fanoutRun
	)
	cfg := netcast.ServerConfig{TimeScale: fanoutTimeScale, BytesPerUnit: bytesPerUnit}
	err := e.setup(fanoutSetups, func(parent trace.Span) error {
		fr = &fanoutRun{}
		s, err := e.serve(parent, fanoutDB, 1, cfg, false, &st)
		if err != nil {
			return err
		}
		fr.s = s
		// The verifiers tune in before the sinks attach: a handshake
		// made while the caster fans frames out to every sink took from
		// 0.3 to 17 ms, so its scheduling noise, not set-up work, set
		// setup_s. No workload times a handshake under fan-out load.
		for i := 0; i < fanoutVerifiers; i++ {
			v, err := e.startVerifier(s)
			if err != nil {
				return err
			}
			fr.verifiers = append(fr.verifiers, v)
		}
		label(layerServer, func() {
			for i := 0; i < fanoutSinks && err == nil; i++ {
				k := &sink{}
				if err = s.srv.Attach(k, 0); err == nil {
					fr.sinks = append(fr.sinks, k)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("attaching a sink: %w", err)
		}
		return nil
	}, func() {
		if err := fr.close(); err != nil {
			e.r.note(fmt.Errorf("closing a set-up: %w", err))
		}
	})
	if err != nil {
		if fr != nil {
			err = errors.Join(err, fr.close())
		}
		return err
	}
	st.record(e.r)
	time.Sleep(fanoutSettle)

	halves := []bool{false}
	if e.t != nil {
		halves = []bool{false, true}
	}
	half := e.window / time.Duration(len(halves))
	if err := e.t.beginWindow(); err != nil {
		return errors.Join(err, fr.close())
	}
	var perCPU []float64
	first := readCounters(fr.s)
	for _, traced := range halves {
		if traced {
			e.t.resume()
		} else {
			e.t.pause()
		}
		for _, v := range fr.verifiers {
			v.traced.Store(traced)
		}
		a, c := readCounters(fr.s), cpuSeconds()
		time.Sleep(half)
		b, d := readCounters(fr.s), cpuSeconds()
		perCPU = append(perCPU, float64(b.delta(a).framesSent)/(d-c))
	}
	counters := readCounters(fr.s).delta(first)
	if err := e.t.endWindow(e.r); err != nil {
		return errors.Join(err, fr.close())
	}
	if err := fr.close(); err != nil {
		e.r.fail(fmt.Errorf("closing the server: %w", err))
	}
	final := readCounters(fr.s)

	r := e.r
	recordServer(r, counters)
	if err := accountSinks(e, fr, final); err != nil {
		return err
	}
	recs, verifiedOwed := e.accountVerifiers(fr)
	epoch, ok := fr.s.sched.calibrate(recs)
	if !ok {
		return errors.New("the verifiers received nothing")
	}
	beginLate, endLate := fr.s.sched.lateness(epoch, recs)
	var realized, scheduled float64
	for i, q := range recs {
		d := fr.s.sched.end(q.ch, q.slot, q.cycle) - fr.s.sched.begin(q.ch, q.slot, q.cycle)
		scheduled += float64(d)
		realized += float64(d) + endLate[i]*float64(time.Microsecond)
	}
	r.addDist("lateness_p50_us", "lateness_p99_us", "us", endLate)
	lateMS := make([]float64, len(endLate))
	for i, x := range endLate {
		lateMS[i] = x / 1e3
	}
	r.addLatency(lateMS)
	r.add("delivery_stretch", realized/scheduled, "ratio", len(recs))
	r.add("deliveries_per_cpu_s", perCPU[0], "1/s", int(counters.framesSent))
	r.add("ops_per_cpu_s", perCPU[0], "1/s", int(counters.framesSent))
	r.add("fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio", int(r.Attempted))
	r.addDist("netcast.begin_lateness_us_p50", "netcast.begin_lateness_us_p99", "us", beginLate)
	r.add("netcast.tune_miss_ratio", 0, "ratio", 0)
	r.add("netcast.client_receptions_per_request", 1, "ratio", verifiedOwed)
	r.add("costmon.regret_pct_mean", 0, "%", 0)
	r.add("costmon.waits_recorded", 0, "count", 0)
	r.add("broadcast.predicted_wb_s", core.WaitingTime(fr.s.alloc, paperBandwidth), "s", 0)
	if e.t != nil {
		r.add("trace.overhead_pct", (perCPU[0]/perCPU[1]-1)*100, "%", 0)
		if ns, ok := r.LayerCPUNS[layerServer]; ok && counters.framesSent > 0 {
			r.add("netcast.server_cpu_ns_per_delivery", float64(ns)/float64(counters.framesSent), "ns", int(counters.framesSent))
		}
	}
	return nil
}

// sink is an in-process subscriber attached with Server.Attach. It
// parses the frame stream written to it, counts broadcast frames, and
// keeps its first and last envelope frames (item begin or end) with
// their positions in its own count, so the frames it was owed between
// them follow exactly from the schedule. Write runs on the server's
// writer goroutine for this subscriber only; the envelope fields are
// read after the server has closed and that goroutine has exited.
type sink struct {
	frames atomic.Int64
	closed atomic.Bool

	first, last     []byte
	firstAt, lastAt int64
	resyncs, bad    int64
}

func (k *sink) Write(p []byte) (int, error) {
	if k.closed.Load() {
		return 0, net.ErrClosed
	}
	n := len(p)
	for len(p) > 0 {
		if len(p) < 5 {
			k.bad++
			break
		}
		l := int(binary.BigEndian.Uint32(p[:4]))
		if l < 1 || 4+l > len(p) {
			k.bad++
			break
		}
		f := p[:4+l]
		p = p[4+l:]
		switch wire.MsgType(f[4]) {
		case wire.MsgResync:
			k.resyncs++
		case wire.MsgItemBegin, wire.MsgItemEnd:
			c := k.frames.Add(1)
			if k.first == nil {
				k.first, k.firstAt = f, c
			}
			k.last, k.lastAt = f, c
		default:
			k.frames.Add(1)
		}
	}
	return n, nil
}

func (k *sink) Read([]byte) (int, error) { return 0, io.EOF }
func (k *sink) Close() error {
	k.closed.Store(true)
	return nil
}
func (k *sink) LocalAddr() net.Addr              { return sinkAddr{} }
func (k *sink) RemoteAddr() net.Addr             { return sinkAddr{} }
func (k *sink) SetDeadline(time.Time) error      { return nil }
func (k *sink) SetReadDeadline(time.Time) error  { return nil }
func (k *sink) SetWriteDeadline(time.Time) error { return nil }

type sinkAddr struct{}

func (sinkAddr) Network() string { return "sink" }
func (sinkAddr) String() string  { return "sink" }

// frameSeq is the position of an envelope frame in the channel's
// publish order: every slot publishes its begin frame and chunk frames
// at its start and its end frame at its end, cycle after cycle.
func frameSeq(s schedule, f []byte) (int64, error) {
	fr, err := wire.ReadFrame(bytes.NewReader(f))
	if err != nil {
		return 0, err
	}
	var (
		pos, cycle int
		end        bool
	)
	switch fr.Type {
	case wire.MsgItemBegin:
		var b wire.ItemBegin
		err = wire.DecodeJSON(fr, &b)
		pos, cycle = b.Pos, b.Cycle
	case wire.MsgItemEnd:
		var b wire.ItemEnd
		err = wire.DecodeJSON(fr, &b)
		pos, cycle, end = b.Pos, b.Cycle, true
	default:
		return 0, fmt.Errorf("frame %s is not an envelope", fr.Type)
	}
	if err != nil {
		return 0, err
	}
	ch, slot, err := s.slotOf(pos)
	if err != nil {
		return 0, err
	}
	var perCycle, before int64
	for i, sl := range s.prog.Channels[ch].Slots {
		n := int64(2 + chunks(sl.Size))
		if i < slot {
			before += n
		}
		perCycle += n
	}
	seq := int64(cycle)*perCycle + before
	if end {
		seq += 1 + int64(chunks(s.prog.Channels[ch].Slots[slot].Size))
	}
	return seq, nil
}

// chunks is the number of chunk frames a slot of the given size
// carries.
func chunks(size float64) int {
	n := netcast.PayloadLen(size, bytesPerUnit)
	return (n + netcastChunk - 1) / netcastChunk
}

// account returns the frames the sink received and the frames the
// schedule owed it between its first and last envelope frames; both
// are zero before it has seen two envelopes.
func (k *sink) account(s schedule) (received, owed int64, err error) {
	if k.first == nil || k.lastAt == k.firstAt {
		return 0, 0, nil
	}
	s0, err := frameSeq(s, k.first)
	if err != nil {
		return 0, 0, err
	}
	s1, err := frameSeq(s, k.last)
	if err != nil {
		return 0, 0, err
	}
	return k.lastAt - k.firstAt + 1, s1 - s0 + 1, nil
}

// accountSinks compares every sink's frame count with the frames the
// schedule owed it and reports the worst subscriber. The registry's
// netcast_frames_broadcast_total cross-checks the frame model: the
// newest frame any sink holds must be among the last RingCapacity
// frames the server published.
func accountSinks(e *env, fr *fanoutRun, final serverCounters) error {
	r := e.r
	worst := 1.0
	var newest int64 = -1
	for _, k := range fr.sinks {
		if k.bad > 0 {
			r.wrong(fmt.Errorf("a sink received %d malformed writes", k.bad))
		}
		got, owed, err := k.account(fr.s.sched)
		if err != nil {
			return err
		}
		if owed == 0 {
			continue
		}
		r.Attempted += owed
		if got > owed {
			r.wrong(fmt.Errorf("a sink received %d frames where %d were published", got, owed))
		} else if got < owed {
			r.failN(owed-got, fmt.Errorf("a sink received %d of %d frames owed (%d resyncs)", got, owed, k.resyncs))
		}
		worst = math.Min(worst, float64(got)/float64(owed))
		last, err := frameSeq(fr.s.sched, k.last)
		if err != nil {
			return err
		}
		newest = max(newest, last)
	}
	if newest < 0 {
		return errors.New("no sink received two envelopes")
	}
	if lag := final.framesBroadcast - (newest + 1); lag < 0 || lag > 1024 {
		r.wrong(fmt.Errorf("frame model disagrees with the registry: %d frames broadcast, newest sink frame at %d", final.framesBroadcast, newest))
	}
	r.add("netcast.completeness_min", worst, "ratio", len(fr.sinks))
	return nil
}

// verifier is a full-protocol TCP client that receives every
// transmission on the channel and checks it.
type verifier struct {
	c      *netcast.Client
	s      *served
	quit   atomic.Bool
	traced atomic.Bool
	wg     sync.WaitGroup

	// Written by the verifier goroutine, read after stop.
	recs  []reception
	wrong []error
	err   error
}

func (e *env) startVerifier(s *served) (*verifier, error) {
	var (
		c   *netcast.Client
		err error
	)
	label(layerClient, func() { c, err = netcast.Tune(s.srv.Addr().String(), 0, requestTimeout) })
	if err != nil {
		return nil, fmt.Errorf("tuning a verifier: %w", err)
	}
	v := &verifier{c: c, s: s}
	v.wg.Add(1)
	go label(layerClient, func() {
		defer v.wg.Done()
		for !v.quit.Load() {
			var sp trace.Span
			if v.traced.Load() {
				sp = e.t.tracer().Start(spanWait)
			}
			rec, err := c.NextItem(time.Now().Add(requestTimeout))
			sp.End()
			if err != nil {
				v.err = err
				return
			}
			v.check(rec)
		}
	})
	return v, nil
}

func (v *verifier) check(rec *netcast.Reception) {
	if err := netcast.VerifyPayload(rec); err != nil {
		v.wrong = append(v.wrong, err)
		return
	}
	placed, err := v.s.sched.place(rec)
	if err != nil {
		v.wrong = append(v.wrong, err)
		return
	}
	v.recs = append(v.recs, placed)
}

// stop ends the verifier after its current reception and disconnects.
func (v *verifier) stop() error {
	v.quit.Store(true)
	v.wg.Wait()
	return v.c.Close()
}

// accountVerifiers checks the verifiers' receptions for parity
// failures and missed transmissions, and returns them with the number
// of transmissions owed.
func (e *env) accountVerifiers(fr *fanoutRun) ([]reception, int) {
	var all []reception
	owedTotal := 0
	n := len(fr.s.prog.Channels[0].Slots)
	perSlot := int64(2 + chunks(1))
	for _, v := range fr.verifiers {
		if v.err != nil {
			e.r.fail(fmt.Errorf("verifier: %w", v.err))
		}
		for _, err := range v.wrong {
			e.r.wrong(err)
		}
		if len(v.recs) == 0 {
			continue
		}
		seq := func(q reception) int { return q.cycle*n + q.slot }
		owed := seq(v.recs[len(v.recs)-1]) - seq(v.recs[0]) + 1
		owedTotal += owed
		e.r.Attempted += int64(owed) * perSlot
		switch missed := owed - len(v.recs); {
		case missed > 0:
			e.r.failN(int64(missed)*perSlot, fmt.Errorf("a verifier received %d of %d transmissions", len(v.recs), owed))
		case missed < 0:
			e.r.wrong(fmt.Errorf("a verifier received %d transmissions where %d were scheduled", len(v.recs), owed))
		}
		all = append(all, v.recs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].endAt.Before(all[j].endAt) })
	return all, owedTotal
}
