package link

import (
	"encoding/binary"
	"testing"

	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/sim"
)

// srPair builds a direct connection with explicit-FSN peers using the
// given retry policy, returning the peers and the a->b wire for fault
// injection.
func srPair(t *testing.T, policy RetryPolicy, reassembly int) (*sim.Engine, *Peer, *Peer, *Wire) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(ProtocolCXLNoPiggyback)
	cfg.Retry = policy
	if reassembly > 0 {
		cfg.ReassemblyBufferSize = reassembly
	}
	a := NewPeer("A", eng, cfg)
	b := NewPeer("B", eng, cfg)
	ab, _ := ConnectDirect(eng, a, b, sim.FlitTime, 10*sim.Nanosecond)
	return eng, a, b, ab
}

func srTag(tag uint64) []byte {
	p := make([]byte, 16)
	binary.BigEndian.PutUint64(p, tag)
	return p
}

func TestRetryPolicyString(t *testing.T) {
	if GoBackN.String() != "go-back-N" || SelectiveRepeat.String() != "selective-repeat" {
		t.Fatal("policy strings wrong")
	}
}

func TestSelectiveRepeatRXLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	cfg := DefaultConfig(ProtocolRXL)
	cfg.Retry = SelectiveRepeat
	NewPeer("A", sim.NewEngine(), cfg)
}

// TestSelectiveRepeatSingleDropRetransmitsOne: dropping one flit out of a
// window costs exactly one retransmission under selective repeat, while
// delivery stays exactly-once in-order.
func TestSelectiveRepeatSingleDropRetransmitsOne(t *testing.T) {
	eng, a, b, ab := srPair(t, SelectiveRepeat, 0)

	seen := 0
	ab.FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeData {
			seen++
			return seen == 3 // drop the third data flit
		}
		return false
	}

	var got []uint64
	b.Deliver = func(p []byte) { got = append(got, binary.BigEndian.Uint64(p)) }

	const n = 20
	for i := uint64(0); i < n; i++ {
		a.Submit(srTag(i))
	}
	eng.Run()

	if uint64(len(got)) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("delivery %d has tag %d", i, v)
		}
	}
	if a.Stats.SingleRetries != 1 {
		t.Errorf("SingleRetries = %d, want 1", a.Stats.SingleRetries)
	}
	if a.Stats.Retransmissions != 1 {
		t.Errorf("Retransmissions = %d, want exactly 1 under selective repeat", a.Stats.Retransmissions)
	}
	if b.Stats.ReassemblyBuffered == 0 || b.Stats.ReassemblyDrained != b.Stats.ReassemblyBuffered {
		t.Errorf("reassembly buffered=%d drained=%d", b.Stats.ReassemblyBuffered, b.Stats.ReassemblyDrained)
	}
	if b.Stats.SingleNaksSent == 0 {
		t.Error("no single NAK was sent")
	}
}

// TestGoBackNSingleDropReplaysWindow is the baseline for the test above:
// the same drop under go-back-N replays every in-flight flit.
func TestGoBackNSingleDropReplaysWindow(t *testing.T) {
	eng, a, b, ab := srPair(t, GoBackN, 0)

	seen := 0
	ab.FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeData {
			seen++
			return seen == 3
		}
		return false
	}

	delivered := 0
	b.Deliver = func([]byte) { delivered++ }
	const n = 20
	for i := uint64(0); i < n; i++ {
		a.Submit(srTag(i))
	}
	eng.Run()

	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if a.Stats.Retransmissions <= 1 {
		t.Fatalf("go-back-N retransmitted %d flits; expected a window replay", a.Stats.Retransmissions)
	}
}

// TestSelectiveRepeatMultipleDrops: several scattered drops each cost one
// retransmission.
func TestSelectiveRepeatMultipleDrops(t *testing.T) {
	eng, a, b, ab := srPair(t, SelectiveRepeat, 0)

	seen := 0
	ab.FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeData {
			seen++
			return seen == 3 || seen == 9 || seen == 15
		}
		return false
	}

	var got []uint64
	b.Deliver = func(p []byte) { got = append(got, binary.BigEndian.Uint64(p)) }
	const n = 40
	for i := uint64(0); i < n; i++ {
		a.Submit(srTag(i))
	}
	eng.Run()

	if uint64(len(got)) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("delivery %d has tag %d", i, v)
		}
	}
	if a.Stats.SingleRetries != 3 {
		t.Errorf("SingleRetries = %d, want 3", a.Stats.SingleRetries)
	}
}

// TestSelectiveRepeatOverflowFallsBack: a tiny reassembly buffer forces
// the receiver back to go-back-N, and delivery still completes cleanly.
func TestSelectiveRepeatOverflowFallsBack(t *testing.T) {
	eng, a, b, ab := srPair(t, SelectiveRepeat, 2)

	seen := 0
	ab.FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeData {
			seen++
			return seen == 2
		}
		return false
	}

	var got []uint64
	b.Deliver = func(p []byte) { got = append(got, binary.BigEndian.Uint64(p)) }
	const n = 30
	for i := uint64(0); i < n; i++ {
		a.Submit(srTag(i))
	}
	eng.Run()

	if uint64(len(got)) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("delivery %d has tag %d", i, v)
		}
	}
	if b.Stats.ReassemblyOverflows == 0 {
		t.Error("buffer never overflowed; scenario did not exercise the fallback")
	}
	if a.Stats.GoBackNRounds == 0 && a.Stats.TimeoutRetries == 0 {
		t.Error("fallback go-back-N never ran")
	}
}

// TestSelectiveRepeatUnderBER: exactly-once in-order delivery holds under
// random errors, and selective repeat spends no more retransmissions than
// go-back-N on the same error pattern.
func TestSelectiveRepeatUnderBER(t *testing.T) {
	run := func(policy RetryPolicy) (retx uint64) {
		eng := sim.NewEngine()
		cfg := DefaultConfig(ProtocolCXLNoPiggyback)
		cfg.Retry = policy
		a := NewPeer("A", eng, cfg)
		b := NewPeer("B", eng, cfg)
		ab, ba := ConnectDirect(eng, a, b, sim.FlitTime, 10*sim.Nanosecond)
		rng := phy.NewRNG(4242)
		ab.PathSched, ab.PathHops = phy.NewSharedSchedule(2e-5, 0.4, rng.Split(), flit.Bits), 1
		ba.PathSched, ba.PathHops = phy.NewSharedSchedule(2e-5, 0.4, rng.Split(), flit.Bits), 1

		var got []uint64
		b.Deliver = func(p []byte) { got = append(got, binary.BigEndian.Uint64(p)) }
		const n = 5000
		for i := uint64(0); i < n; i++ {
			a.Submit(srTag(i))
		}
		eng.Run()
		if uint64(len(got)) != n {
			t.Fatalf("%v delivered %d of %d", policy, len(got), n)
		}
		for i, v := range got {
			if v != uint64(i) {
				t.Fatalf("%v delivery %d has tag %d", policy, i, v)
			}
		}
		return a.Stats.Retransmissions
	}

	gbn := run(GoBackN)
	sr := run(SelectiveRepeat)
	if gbn == 0 {
		t.Skip("no errors at this seed; nothing to compare")
	}
	if sr > gbn {
		t.Errorf("selective repeat retransmitted more (%d) than go-back-N (%d)", sr, gbn)
	}
	t.Logf("retransmissions: go-back-N=%d selective-repeat=%d", gbn, sr)
}

// BenchmarkRetryAblationGoBackN / SelectiveRepeat: the DESIGN.md retry
// ablation — simulator cost of each policy under identical error rates.
func benchRetry(b *testing.B, policy RetryPolicy) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(ProtocolCXLNoPiggyback)
	cfg.Retry = policy
	a := NewPeer("A", eng, cfg)
	pb := NewPeer("B", eng, cfg)
	ab, ba := ConnectDirect(eng, a, pb, sim.FlitTime, 10*sim.Nanosecond)
	rng := phy.NewRNG(7)
	ab.PathSched, ab.PathHops = phy.NewSharedSchedule(1e-5, 0.4, rng.Split(), flit.Bits), 1
	ba.PathSched, ba.PathHops = phy.NewSharedSchedule(1e-5, 0.4, rng.Split(), flit.Bits), 1
	delivered := 0
	pb.Deliver = func([]byte) { delivered++ }
	payload := make([]byte, 16)
	b.SetBytes(flit.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Submit(payload)
		if a.Queued() > 256 {
			eng.Run()
		}
	}
	eng.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
	b.ReportMetric(float64(a.Stats.Retransmissions)/float64(b.N), "retx/op")
}

func BenchmarkRetryAblationGoBackN(b *testing.B)         { benchRetry(b, GoBackN) }
func BenchmarkRetryAblationSelectiveRepeat(b *testing.B) { benchRetry(b, SelectiveRepeat) }
