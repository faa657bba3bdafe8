package main

import (
	"math"
	"testing"
	"time"

	"diversecast/internal/broadcast"
	"diversecast/internal/core"
)

// twoChannelProgram serves items of sizes 1..4 on two channels.
func twoChannelProgram(t *testing.T) *broadcast.Program {
	t.Helper()
	db := core.MustNewDatabase([]core.Item{
		{ID: 1, Freq: 0.4, Size: 1}, {ID: 2, Freq: 0.3, Size: 2},
		{ID: 3, Freq: 0.2, Size: 3}, {ID: 4, Freq: 0.1, Size: 4},
	})
	a, err := core.NewAllocation(db, 2, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := broadcast.Build(a, 10, broadcast.ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Receptions delayed by known amounts past a hidden epoch: calibration
// recovers the epoch up to the fastest begin, and lateness is each
// delay above that floor.
func TestCalibrateAndLateness(t *testing.T) {
	s := schedule{prog: twoChannelProgram(t), scale: 0.01}
	epoch := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	type obs struct {
		ch, slot, cycle    int
		beginLag, endDelay time.Duration
	}
	in := []obs{
		{0, 0, 0, 300 * time.Microsecond, 500 * time.Microsecond},
		{0, 1, 0, 120 * time.Microsecond, 200 * time.Microsecond}, // fastest begin
		{1, 1, 3, 700 * time.Microsecond, 900 * time.Microsecond},
		{1, 0, 7, 150 * time.Microsecond, 125 * time.Microsecond},
	}
	recs := make([]reception, len(in))
	for i, o := range in {
		recs[i] = reception{
			ch: o.ch, slot: o.slot, cycle: o.cycle,
			beginAt: epoch.Add(s.begin(o.ch, o.slot, o.cycle) + o.beginLag),
			endAt:   epoch.Add(s.end(o.ch, o.slot, o.cycle) + o.endDelay),
		}
	}
	got, ok := s.calibrate(recs)
	if !ok {
		t.Fatal("calibrate found no receptions")
	}
	floor := 120 * time.Microsecond
	if d := got.Sub(epoch); d != floor {
		t.Fatalf("epoch off by %v, want the fastest begin lag %v", d, floor)
	}
	begin, end := s.lateness(got, recs)
	for i, o := range in {
		if want := us(o.beginLag - floor); math.Abs(begin[i]-want) > 1e-3 {
			t.Errorf("reception %d: begin lateness %v µs, want %v", i, begin[i], want)
		}
		if want := us(o.endDelay - floor); math.Abs(end[i]-want) > 1e-3 {
			t.Errorf("reception %d: end lateness %v µs, want %v", i, end[i], want)
		}
	}
	if _, ok := s.calibrate(nil); ok {
		t.Error("calibrate succeeded without receptions")
	}
}

// A client tuning in just after a slot started must wait for the next
// cycle; one tuning in before it gets the current one.
func TestImpliedCycle(t *testing.T) {
	s := schedule{prog: twoChannelProgram(t), scale: 1}
	ch, slot, _ := s.slotOf(2) // item 3, second slot of channel 0
	c := s.prog.Channels[ch]
	start := c.Slots[slot].Start
	for _, tc := range []struct {
		t    float64
		want int
	}{
		{start - 0.01, 0},
		{start + 0.01, 1},
		{2*c.CycleLength + start - 0.01, 2},
	} {
		got, err := s.impliedCycle(2, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("t=%v: implied cycle %d, want %d", tc.t, got, tc.want)
		}
	}
}
