package main

import (
	"testing"

	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/netcast"
	"diversecast/internal/wire"
)

// publish encodes the frames a caster publishes for cycles [0, cycles)
// of a one-channel program, in publish order, as one batch per slot
// start ([begin, chunks...]) and one per slot end ([end]).
func publish(t *testing.T, p *broadcast.Program, cycles int) [][][]byte {
	t.Helper()
	var batches [][][]byte
	for c := 0; c < cycles; c++ {
		for _, sl := range p.Channels[0].Slots {
			n := netcast.PayloadLen(sl.Size, bytesPerUnit)
			begin, err := wire.EncodeJSON(wire.MsgItemBegin, wire.ItemBegin{Pos: sl.Pos, ItemID: sl.ItemID, Size: sl.Size, PayloadLen: n, Cycle: c})
			if err != nil {
				t.Fatal(err)
			}
			start := [][]byte{begin}
			payload := netcast.Payload(sl.ItemID, n)
			for off := 0; off < n; off += netcastChunk {
				chunk, err := wire.EncodeFrame(wire.MsgItemChunk, payload[off:min(off+netcastChunk, n)])
				if err != nil {
					t.Fatal(err)
				}
				start = append(start, chunk)
			}
			end, err := wire.EncodeJSON(wire.MsgItemEnd, wire.ItemEnd{Pos: sl.Pos, ItemID: sl.ItemID, Cycle: c})
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, start, [][]byte{end})
		}
	}
	return batches
}

func fanoutSchedule(t *testing.T) schedule {
	t.Helper()
	db, err := fanoutDB()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAllocation(db, 1, make([]int, db.Len()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := broadcast.Build(a, paperBandwidth, broadcast.ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	return schedule{prog: p, scale: fanoutTimeScale}
}

// Every envelope frame's schedule position is its index in the publish
// order.
func TestFrameSeqMatchesPublishOrder(t *testing.T) {
	s := fanoutSchedule(t)
	var i int64
	for _, batch := range publish(t, s.prog, 3) {
		for _, f := range batch {
			if typ := wire.MsgType(f[4]); typ == wire.MsgItemBegin || typ == wire.MsgItemEnd {
				got, err := frameSeq(s, f)
				if err != nil {
					t.Fatal(err)
				}
				if got != i {
					t.Fatalf("frame %d (%s): frameSeq = %d", i, typ, got)
				}
			}
			i++
		}
	}
}

// A sink that joins mid-slot and misses one frame accounts for exactly
// that frame, whether frames arrive one per write or batched.
func TestSinkCompleteness(t *testing.T) {
	s := fanoutSchedule(t)
	batches := publish(t, s.prog, 3)[3:] // join after a slot start and end
	for _, batched := range []bool{false, true} {
		k := &sink{}
		lost := false
		var sent int64
		for bi, batch := range batches {
			if bi == 40 {
				batch = batch[1:] // the writer lost a begin frame
				lost = true
			}
			if batched {
				var buf []byte
				for _, f := range batch {
					buf = append(buf, f...)
				}
				if _, err := k.Write(buf); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, f := range batch {
					if _, err := k.Write(f); err != nil {
						t.Fatal(err)
					}
				}
			}
			sent += int64(len(batch))
		}
		if !lost || k.bad != 0 {
			t.Fatalf("test setup: lost=%v bad=%d", lost, k.bad)
		}
		got, owed, err := k.account(s)
		if err != nil {
			t.Fatal(err)
		}
		if owed-got != 1 {
			t.Errorf("batched=%v: received %d of %d owed, want exactly one missing", batched, got, owed)
		}
		if k.frames.Load() != sent {
			t.Errorf("batched=%v: counted %d frames, wrote %d", batched, k.frames.Load(), sent)
		}
	}
}

func TestSinkRejectsTornFrames(t *testing.T) {
	k := &sink{}
	f, err := wire.EncodeFrame(wire.MsgItemChunk, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(f[:len(f)-1]); err != nil {
		t.Fatal(err)
	}
	if k.bad != 1 || k.frames.Load() != 0 {
		t.Errorf("torn frame: bad=%d frames=%d", k.bad, k.frames.Load())
	}
	if got, owed, err := k.account(fanoutSchedule(t)); got != 0 || owed != 0 || err != nil {
		t.Errorf("empty sink accounts %d of %d (%v)", got, owed, err)
	}
}
