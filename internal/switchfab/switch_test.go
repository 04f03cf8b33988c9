package switchfab

import (
	"encoding/binary"
	"testing"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/sim"
)

func tagged(tag uint64) []byte {
	p := make([]byte, 16)
	binary.BigEndian.PutUint64(p, tag)
	return p
}

func collectTags(dst *[]uint64) func([]byte) {
	return func(p []byte) { *dst = append(*dst, binary.BigEndian.Uint64(p)) }
}

func wantInOrder(t *testing.T, got []uint64, n uint64) {
	t.Helper()
	if uint64(len(got)) != n {
		t.Fatalf("delivered %d payloads, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("delivery %d has tag %d", i, v)
		}
	}
}

func TestChainCleanDelivery(t *testing.T) {
	for _, proto := range []link.Protocol{link.ProtocolCXL, link.ProtocolCXLNoPiggyback, link.ProtocolRXL} {
		for _, levels := range []int{0, 1, 2, 4} {
			t.Run(proto.String(), func(t *testing.T) {
				eng := sim.NewEngine()
				c := NewChain(eng, DefaultChainConfig(proto, levels))
				var got []uint64
				c.B.Deliver = collectTags(&got)
				const n = 200
				for i := uint64(0); i < n; i++ {
					c.A.Submit(tagged(i))
				}
				eng.Run()
				wantInOrder(t, got, n)
				if levels > 0 {
					st := c.TotalSwitchStats()
					if st.Forwarded == 0 {
						t.Error("switches forwarded nothing")
					}
					if st.DroppedUncorrectable+st.DroppedCRC != 0 {
						t.Error("clean chain dropped flits")
					}
				}
			})
		}
	}
}

func TestChainBidirectional(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChain(eng, DefaultChainConfig(link.ProtocolRXL, 2))
	var gotB, gotA []uint64
	c.B.Deliver = collectTags(&gotB)
	c.A.Deliver = collectTags(&gotA)
	const n = 200
	for i := uint64(0); i < n; i++ {
		c.A.Submit(tagged(i))
		c.B.Submit(tagged(i))
	}
	eng.Run()
	wantInOrder(t, gotB, n)
	wantInOrder(t, gotA, n)
}

// TestSwitchDropsUncorrectable: a flit corrupted beyond FEC repair on the
// first hop is silently discarded by the switch and never reaches the
// endpoint — the failure mode everything else builds on.
func TestSwitchDropsUncorrectable(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultChainConfig(link.ProtocolRXL, 1)
	c := NewChain(eng, cfg)
	var got []uint64
	c.B.Deliver = collectTags(&got)

	seen := 0
	c.Fwd[0].FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeData {
			seen++
			if seen == 3 {
				// Two symbol errors in one interleave way: uncorrectable.
				f.Raw[30] ^= 0xFF
				f.Raw[33] ^= 0xFF
			}
		}
		return false
	}
	const n = 20
	for i := uint64(0); i < n; i++ {
		c.A.Submit(tagged(i))
	}
	eng.Run()
	wantInOrder(t, got, n) // RXL recovers via ISN
	if c.Switches[0].Stats.DroppedUncorrectable != 1 {
		t.Errorf("DroppedUncorrectable = %d, want 1", c.Switches[0].Stats.DroppedUncorrectable)
	}
	if c.B.Stats.CrcErrors == 0 {
		t.Error("endpoint never saw the ISN mismatch")
	}
}

// TestSwitchDropCXLPiggybackMisorders reproduces the paper's core failure
// (Section 7.1.2) across a real switch: a drop at the first link followed
// by an AckNum-carrying flit yields out-of-order delivery under CXL.
func TestSwitchDropCXLPiggybackMisorders(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultChainConfig(link.ProtocolCXL, 1)
	cfg.LinkCfg.CoalesceCount = 1
	c := NewChain(eng, cfg)
	var got []uint64
	c.B.Deliver = collectTags(&got)

	// Corrupt data flit #2 uncorrectably on the first hop; the switch
	// drops it silently.
	seen := 0
	c.Fwd[0].FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeData {
			seen++
			if seen == 2 {
				f.Raw[30] ^= 0xFF
				f.Raw[33] ^= 0xFF
			}
		}
		return false
	}

	// Reverse payload gives A an ack to piggyback; timing as in Fig. 4.
	c.B.Submit(tagged(100))
	c.A.Submit(tagged(0))
	c.A.Submit(tagged(1))
	eng.Schedule(30*sim.Nanosecond, func() { c.A.Submit(tagged(2)) })
	eng.Schedule(34*sim.Nanosecond, func() { c.A.Submit(tagged(3)) })
	eng.Run()

	if c.Switches[0].Stats.DroppedUncorrectable == 0 {
		t.Fatal("switch never dropped the flit")
	}
	if c.B.Stats.UnverifiedDelivered == 0 {
		t.Fatal("scenario did not exercise the piggyback blind spot")
	}
	// Misordering: tag 2 delivered before tag 1.
	pos := map[uint64]int{}
	for i, v := range got {
		if _, dup := pos[v]; !dup {
			pos[v] = i
		}
	}
	if !(pos[2] < pos[1]) {
		t.Fatalf("expected out-of-order delivery, got %v", got)
	}
}

// TestInternalCorruptionCXLUndetected demonstrates Section 6.3: corruption
// inside a CXL switch is blessed by the regenerated link CRC and reaches
// the application undetected.
func TestInternalCorruptionCXLUndetected(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChain(eng, DefaultChainConfig(link.ProtocolCXL, 1))
	var payloads [][]byte
	c.B.Deliver = func(p []byte) { payloads = append(payloads, append([]byte(nil), p...)) }

	fired := false
	c.Switches[0].InternalHook = func(f *flit.Flit) bool {
		if !fired && f.Header().Type == flit.TypeData {
			fired = true
			f.Payload()[5] ^= 0xAA // datapath corruption inside the switch
			return true
		}
		return false
	}
	c.A.Submit(tagged(0))
	eng.Run()

	if !fired {
		t.Fatal("internal corruption never injected")
	}
	if len(payloads) != 1 {
		t.Fatalf("delivered %d payloads", len(payloads))
	}
	if payloads[0][5] != 0xAA^0 {
		t.Fatalf("expected corrupted byte to reach the application, got %#x", payloads[0][5])
	}
	if c.B.Stats.CrcErrors != 0 {
		t.Error("CXL endpoint should NOT detect switch-internal corruption")
	}
}

// TestInternalCorruptionRXLDetected: under RXL the end-to-end ECRC catches
// the same internal corruption and the retry delivers clean data.
func TestInternalCorruptionRXLDetected(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChain(eng, DefaultChainConfig(link.ProtocolRXL, 1))
	var payloads [][]byte
	c.B.Deliver = func(p []byte) { payloads = append(payloads, append([]byte(nil), p...)) }

	fired := false
	c.Switches[0].InternalHook = func(f *flit.Flit) bool {
		if !fired && f.Header().Type == flit.TypeData {
			fired = true
			f.Payload()[5] ^= 0xAA
			return true
		}
		return false
	}
	c.A.Submit(tagged(0))
	eng.Run()

	if !fired {
		t.Fatal("internal corruption never injected")
	}
	if len(payloads) != 1 {
		t.Fatalf("delivered %d payloads", len(payloads))
	}
	if payloads[0][5] != 0 {
		t.Fatal("RXL delivered corrupted data")
	}
	if c.B.Stats.CrcErrors == 0 {
		t.Error("RXL endpoint never flagged the corruption")
	}
	if c.A.Stats.Retransmissions == 0 {
		t.Error("no retry happened")
	}
}

// TestInternalHookSilentMutationRegenerated pins the hook contract the
// egress skip must honour: a hook that mutates the image and returns false
// still gets a regenerated FEC, so the next hop receives a valid codeword
// (and does not "correct" the mutation away), and the RXL endpoint
// rejects the flit by its end-to-end CRC.
func TestInternalHookSilentMutationRegenerated(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChain(eng, DefaultChainConfig(link.ProtocolRXL, 2))
	var payloads [][]byte
	c.B.Deliver = func(p []byte) { payloads = append(payloads, append([]byte(nil), p...)) }

	fired := false
	c.Switches[0].InternalHook = func(f *flit.Flit) bool {
		if !fired && f.Header().Type == flit.TypeData {
			fired = true
			f.Payload()[5] ^= 0xAA
		}
		return false
	}
	fec := flit.NewFEC()
	nonCodewords := 0
	c.Fwd[1].FaultHook = func(f *flit.Flit) bool {
		if !fec.VerifyReference(f.Raw[:flit.ProtectedSize], f.FECField()) {
			nonCodewords++
		}
		return false
	}
	c.A.Submit(tagged(0))
	eng.Run()

	if !fired {
		t.Fatal("internal mutation never injected")
	}
	if nonCodewords != 0 {
		t.Fatalf("%d flits reached the next hop as non-codewords", nonCodewords)
	}
	if c.B.Stats.CrcErrors == 0 {
		t.Error("RXL endpoint did not reject the silently mutated flit by ECRC")
	}
	if st := c.TotalSwitchStats(); st.InternalCorruptions != 0 || st.CorrectedFlits != 0 {
		t.Errorf("hook returned false but stats show %d corruptions, %d corrections", st.InternalCorruptions, st.CorrectedFlits)
	}
	if len(payloads) != 1 || payloads[0][5] != 0 {
		t.Fatalf("delivered %d payloads, want the retried clean one", len(payloads))
	}
}

func TestChainUnderBERRXLExactlyOnce(t *testing.T) {
	eng := sim.NewEngine()
	c := NewChain(eng, DefaultChainConfig(link.ProtocolRXL, 2))
	rng := phy.NewRNG(99)
	for _, w := range append(append([]*link.Wire{}, c.Fwd...), c.Bwd...) {
		w.PathSched, w.PathHops = phy.NewSharedSchedule(1e-5, 0.4, rng.Split(), flit.Bits), 1
	}
	var got []uint64
	c.B.Deliver = collectTags(&got)
	const n = 3000
	for i := uint64(0); i < n; i++ {
		c.A.Submit(tagged(i))
	}
	eng.Run()
	wantInOrder(t, got, n)
	st := c.TotalSwitchStats()
	if st.DroppedUncorrectable == 0 {
		t.Log("note: no switch drops occurred at this BER/seed")
	}
}

func TestChainUnderBERNoPiggybackExactlyOnce(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultChainConfig(link.ProtocolCXLNoPiggyback, 1)
	c := NewChain(eng, cfg)
	rng := phy.NewRNG(5)
	for _, w := range append(append([]*link.Wire{}, c.Fwd...), c.Bwd...) {
		w.PathSched, w.PathHops = phy.NewSharedSchedule(1e-5, 0.4, rng.Split(), flit.Bits), 1
	}
	var got []uint64
	c.B.Deliver = collectTags(&got)
	const n = 3000
	for i := uint64(0); i < n; i++ {
		c.A.Submit(tagged(i))
	}
	eng.Run()
	wantInOrder(t, got, n)
}

func TestNegativeLevelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewChain(sim.NewEngine(), ChainConfig{Levels: -1, LinkCfg: link.DefaultConfig(link.ProtocolRXL)})
}

func TestModeString(t *testing.T) {
	if ModeCXL.String() != "CXL" || ModeRXL.String() != "RXL" {
		t.Error("mode strings wrong")
	}
}

func BenchmarkChainThroughput2Level(b *testing.B) {
	eng := sim.NewEngine()
	c := NewChain(eng, DefaultChainConfig(link.ProtocolRXL, 2))
	delivered := 0
	c.B.Deliver = func([]byte) { delivered++ }
	payload := make([]byte, flit.PayloadSize)
	b.SetBytes(flit.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.A.Submit(payload)
		if c.A.Queued() > 256 {
			eng.Run()
		}
	}
	eng.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
