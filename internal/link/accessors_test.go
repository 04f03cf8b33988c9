package link

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Accessor and edge-path coverage: these tests pin down the small exported
// surface (introspection accessors, wire statistics) and the defensive
// branches of the sequence machinery that the protocol tests rarely reach.

func TestPeerIntrospectionAccessors(t *testing.T) {
	eng := sim.NewEngine()
	a := NewPeer("A", eng, DefaultConfig(ProtocolRXL))
	b := NewPeer("B", eng, DefaultConfig(ProtocolRXL))
	ab, _ := connectDirect(eng, a, b, sim.FlitTime, sim.Nanosecond)

	if a.nextSeq != 0 || a.eseq != 0 || a.Queued() != 0 {
		t.Fatal("fresh peer not zeroed")
	}
	for i := 0; i < 200; i++ {
		a.Submit(make([]byte, 8))
	}
	if a.Queued() == 0 {
		t.Error("nothing queued behind the replay window")
	}
	eng.Run()
	if a.nextSeq != 200 {
		t.Errorf("nextSeq = %d, want 200", a.nextSeq)
	}
	if b.eseq != 200 {
		t.Errorf("eseq = %d, want 200", b.eseq)
	}

	if u, want := ab.Utilization(), float64(a.Stats.FlitsSent)*float64(sim.FlitTime)/float64(eng.Now()); u != want {
		t.Errorf("utilization %g, want %g from the peer's FlitsSent", u, want)
	}
}

func TestStampRouteOnControlFlits(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(ProtocolCXLNoPiggyback)
	cfg.StampRoute = true
	cfg.SrcTag = 7
	cfg.RouteTag = 9
	cfg.CoalesceCount = 1
	a := NewPeer("A", eng, cfg)
	b := NewPeer("B", eng, cfg)

	var stamped []flit.Header
	var tags [][2]byte
	ab := NewWire(eng, sim.FlitTime, sim.Nanosecond, b.Receive)
	ba := NewWire(eng, sim.FlitTime, sim.Nanosecond, func(f *flit.Flit) {
		stamped = append(stamped, f.Header())
		tags = append(tags, [2]byte{f.Payload()[flit.RouteOffset], f.Payload()[flit.SrcRouteOffset]})
		a.Receive(f)
	})
	a.Attach(ab)
	b.Attach(ba)

	a.Submit(make([]byte, 8))
	eng.Run()

	if len(stamped) == 0 {
		t.Fatal("no reverse flits (expected a standalone ACK)")
	}
	for i, h := range stamped {
		if h.Type != flit.TypeAck {
			continue
		}
		if tags[i] != [2]byte{9, 7} {
			t.Fatalf("ACK flit routing tags = %v, want [9 7]", tags[i])
		}
	}
}

// receiveNakSingle hands p a sealed NAK flit whose header carries the
// single-flit command. The header format still defines CmdNakSingle, but
// no peer dispatches on it: every NAK flit is a go-back-N request.
func receiveNakSingle(p *Peer, seq uint64) {
	f := p.pool.Get()
	f.SetHeader(flit.Header{FSN: wireSeq(seq), Cmd: flit.CmdNakSingle, Type: flit.TypeNak})
	f.SealCXL(flit.FEC)
	p.Receive(f)
}

// TestOnNakSingleStaleIgnored: single-flit NAKs for already-acknowledged
// or never-sent sequences are handled as go-back-N NAKs and, with nothing
// in flight, replay nothing.
func TestOnNakSingleStaleIgnored(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(ProtocolCXLNoPiggyback)
	a := NewPeer("A", eng, cfg)
	b := NewPeer("B", eng, cfg)
	connectDirect(eng, a, b, sim.FlitTime, sim.Nanosecond)
	for i := 0; i < 20; i++ {
		a.Submit(make([]byte, 8))
	}
	eng.Run()

	// Everything acknowledged; a stale NAK must be a no-op.
	before := a.Stats
	receiveNakSingle(a, 0)
	eng.Run()
	if a.Stats.NaksReceived != before.NaksReceived+1 {
		t.Fatalf("NaksReceived = %d, want %d", a.Stats.NaksReceived, before.NaksReceived+1)
	}
	if a.Stats.Retransmissions != before.Retransmissions || a.Stats.GoBackNRounds != before.GoBackNRounds {
		t.Fatal("stale single NAK triggered a retransmission")
	}
	// A NAK for a sequence never sent is also ignored.
	receiveNakSingle(a, 500)
	eng.Run()
	if a.Stats.Retransmissions != before.Retransmissions || a.Stats.GoBackNRounds != before.GoBackNRounds {
		t.Fatal("future single NAK triggered a retransmission")
	}
}

// TestOnNakSingleDuplicateQueued: duplicate single-flit NAKs for the same
// sequence, arriving while the payloads are still queued, leave delivery
// exactly-once.
func TestOnNakSingleDuplicateQueued(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(ProtocolCXLNoPiggyback)
	a := NewPeer("A", eng, cfg)
	b := NewPeer("B", eng, cfg)
	connectDirect(eng, a, b, sim.FlitTime, sim.Nanosecond)

	// Hold the window open: submit but do not run, so nothing is acked.
	a.Submit(make([]byte, 8))
	a.Submit(make([]byte, 8))
	receiveNakSingle(a, 1)
	receiveNakSingle(a, 1) // duplicate while queued
	delivered := 0
	b.Deliver = func([]byte) { delivered++ }
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d of 2", delivered)
	}
	if a.Stats.NaksReceived != 2 {
		t.Fatalf("NaksReceived = %d, want 2", a.Stats.NaksReceived)
	}
}

// TestCorruptedAckIgnored: an ACK flit whose CRC fails is discarded and
// the retry timer recovers the stream.
func TestCorruptedAckIgnored(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(ProtocolCXLNoPiggyback)
	cfg.CoalesceCount = 1
	a := NewPeer("A", eng, cfg)
	b := NewPeer("B", eng, cfg)
	_, ba := connectDirect(eng, a, b, sim.FlitTime, sim.Nanosecond)

	// Corrupt the CRC of the first ACK so it fails validation but keep
	// FEC consistent by re-encoding.
	hit := false
	ba.FaultHook = func(f *flit.Flit) bool {
		if !hit && f.Header().Type == flit.TypeAck {
			hit = true
			f.Image(nil)[flit.HeaderSize+100] ^= 0xFF // payload byte under the CRC
			f.ReencodeFEC(flit.NewFEC())
		}
		return false
	}

	delivered := 0
	b.Deliver = func([]byte) { delivered++ }
	a.Submit(make([]byte, 8))
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
	if !hit {
		t.Fatal("no ACK was corrupted")
	}
	if a.Stats.ControlCrcErrors+b.Stats.ControlCrcErrors == 0 {
		t.Fatal("corrupted control flit never flagged")
	}
	if len(a.replay) != 0 {
		t.Fatal("replay window never drained")
	}
}

// TestAckBeyondWindowClamped: an ACK number ahead of everything sent is
// clamped to the window edge rather than corrupting transmitter state.
func TestAckBeyondWindowClamped(t *testing.T) {
	eng := sim.NewEngine()
	a := NewPeer("A", eng, DefaultConfig(ProtocolCXLNoPiggyback))
	b := NewPeer("B", eng, DefaultConfig(ProtocolCXLNoPiggyback))
	connectDirect(eng, a, b, sim.FlitTime, sim.Nanosecond)
	a.Submit(make([]byte, 8))
	a.onAck(wireSeq(700)) // absurd AckNum
	eng.Run()
	if a.nextSeq != 1 || len(a.replay) != 0 {
		t.Fatalf("window state corrupted: next=%d outstanding=%d", a.nextSeq, len(a.replay))
	}
}

// TestChannelAttachment exercises the BER error model through the wire.
func TestChannelAttachment(t *testing.T) {
	eng := sim.NewEngine()
	a := NewPeer("A", eng, DefaultConfig(ProtocolRXL))
	b := NewPeer("B", eng, DefaultConfig(ProtocolRXL))
	ab, _ := connectDirect(eng, a, b, sim.FlitTime, sim.Nanosecond)
	sched := phy.NewSharedSchedule(1e-4, 0, phy.NewRNG(3), flit.Bits)
	lossy(ab, sched)

	delivered := 0
	b.Deliver = func([]byte) { delivered++ }
	const n = 500
	for i := 0; i < n; i++ {
		a.Submit(make([]byte, 8))
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if sched.BitsFlipped == 0 {
		t.Fatal("channel injected nothing at BER 1e-4")
	}
}
