package main

import (
	"fmt"
	"math"
	"time"

	"diversecast/internal/broadcast"
	"diversecast/internal/netcast"
)

// schedule converts the program's virtual timeline into wall-clock
// offsets from the server epoch: real = virtual·scale.
type schedule struct {
	prog  *broadcast.Program
	scale float64
}

// slotOf resolves a database position to its channel and slot index.
func (s schedule) slotOf(pos int) (ch, slot int, err error) {
	ch, slot, ok := s.prog.Locate(pos)
	if !ok {
		return 0, 0, fmt.Errorf("item position %d is not scheduled", pos)
	}
	return ch, slot, nil
}

func (s schedule) wall(virtual float64) time.Duration {
	return time.Duration(virtual * s.scale * float64(time.Second))
}

// begin and end are the scheduled wall offsets, from the epoch, of
// the transmission of a slot in a given cycle.
func (s schedule) begin(ch, slot, cycle int) time.Duration {
	c := s.prog.Channels[ch]
	return s.wall(float64(cycle)*c.CycleLength + c.Slots[slot].Start)
}

func (s schedule) end(ch, slot, cycle int) time.Duration {
	c := s.prog.Channels[ch]
	return s.wall(float64(cycle)*c.CycleLength + c.Slots[slot].End())
}

// virtualAt converts a wall instant into program time under an epoch.
func (s schedule) virtualAt(epoch, t time.Time) float64 {
	return t.Sub(epoch).Seconds() / s.scale
}

// impliedCycle is the cycle of the first transmission of pos that
// starts at or after virtual time t: the one a client tuning in at t
// should receive.
func (s schedule) impliedCycle(pos int, t float64) (int, error) {
	start, err := s.prog.NextStart(pos, t)
	if err != nil {
		return 0, err
	}
	ch, slot, err := s.slotOf(pos)
	if err != nil {
		return 0, err
	}
	c := s.prog.Channels[ch]
	return int(math.Round((start - c.Slots[slot].Start) / c.CycleLength)), nil
}

// reception is one received transmission placed on the schedule.
type reception struct {
	ch, slot, cycle int
	beginAt, endAt  time.Time
}

// place resolves a client reception to its slot on the schedule.
func (s schedule) place(rec *netcast.Reception) (reception, error) {
	ch, slot, err := s.slotOf(rec.Begin.Pos)
	if err != nil {
		return reception{}, err
	}
	if ch != rec.Begin.Channel {
		return reception{}, fmt.Errorf("item %d received on channel %d, scheduled on %d", rec.Begin.ItemID, rec.Begin.Channel, ch)
	}
	if want := s.prog.Channels[ch].Slots[slot].ItemID; want != rec.Begin.ItemID {
		return reception{}, fmt.Errorf("slot %d/%d carried item %d, scheduled item %d", ch, slot, rec.Begin.ItemID, want)
	}
	return reception{ch: ch, slot: slot, cycle: rec.Begin.Cycle, beginAt: rec.BeginAt, endAt: rec.EndAt}, nil
}

// calibrate estimates the server epoch from the fastest begin frame
// of the run: the minimum over receptions of receipt time minus
// scheduled start. Bracketing the Serve call pins the epoch only to
// within a millisecond; the floor pins it to the fastest observed
// delivery, so lateness is measured above what the transport can do
// at best. ok is false without receptions.
func (s schedule) calibrate(recs []reception) (epoch time.Time, ok bool) {
	for i, r := range recs {
		e := r.beginAt.Add(-s.begin(r.ch, r.slot, r.cycle))
		if i == 0 || e.Before(epoch) {
			epoch = e
		}
	}
	return epoch, len(recs) > 0
}

// lateness returns, in microseconds, how far each transmission's begin
// and end receipt trailed its schedule under the calibrated epoch.
func (s schedule) lateness(epoch time.Time, recs []reception) (begin, end []float64) {
	begin = make([]float64, len(recs))
	end = make([]float64, len(recs))
	for i, r := range recs {
		begin[i] = us(r.beginAt.Sub(epoch.Add(s.begin(r.ch, r.slot, r.cycle))))
		end[i] = us(r.endAt.Sub(epoch.Add(s.end(r.ch, r.slot, r.cycle))))
	}
	return begin, end
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
