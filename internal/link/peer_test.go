package link

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/sim"
)

// harness wires two peers back to back and records delivered payload tags.
type harness struct {
	eng    *sim.Engine
	a, b   *Peer
	ab, ba *Wire
	gotB   []uint64 // tags delivered at b (a -> b direction)
	gotA   []uint64 // tags delivered at a
}

func newHarness(t *testing.T, proto Protocol, tweak func(*Config)) *harness {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig(proto)
	if tweak != nil {
		tweak(&cfg)
	}
	h := &harness{eng: eng}
	h.a = NewPeer("a", eng, cfg)
	h.b = NewPeer("b", eng, cfg)
	h.a.Deliver = func(p []byte) { h.gotA = append(h.gotA, binary.BigEndian.Uint64(p)) }
	h.b.Deliver = func(p []byte) { h.gotB = append(h.gotB, binary.BigEndian.Uint64(p)) }
	h.ab, h.ba = connectDirect(eng, h.a, h.b, sim.FlitTime, 10*sim.Nanosecond)
	return h
}

// connectDirect wires two peers back-to-back (the paper's "direct
// connection" topology) with the given per-direction serialization and
// propagation delays, returning the two wires (a->b, b->a) for channel and
// fault-hook attachment.
func connectDirect(eng *sim.Engine, a, b *Peer, ser, prop sim.Time) (ab, ba *Wire) {
	ab = NewWire(eng, ser, prop, b.Receive)
	ba = NewWire(eng, ser, prop, a.Receive)
	a.Attach(ab)
	b.Attach(ba)
	return ab, ba
}

func tagged(tag uint64) []byte {
	p := make([]byte, 16)
	binary.BigEndian.PutUint64(p, tag)
	return p
}

func wantInOrder(t *testing.T, got []uint64, n uint64) {
	t.Helper()
	if uint64(len(got)) != n {
		t.Fatalf("delivered %d payloads, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("delivery %d has tag %d (sequence %v...)", i, v, got[:min(i+2, len(got))])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBasicDeliveryAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{ProtocolCXL, ProtocolCXLNoPiggyback, ProtocolRXL} {
		t.Run(proto.String(), func(t *testing.T) {
			h := newHarness(t, proto, nil)
			const n = 500
			for i := uint64(0); i < n; i++ {
				h.a.Submit(tagged(i))
			}
			h.eng.Run()
			wantInOrder(t, h.gotB, n)
			if h.a.Stats.Retransmissions != 0 {
				t.Errorf("clean link retransmitted %d flits", h.a.Stats.Retransmissions)
			}
			if len(h.a.replay) != 0 {
				t.Errorf("%d flits never acknowledged", len(h.a.replay))
			}
		})
	}
}

func TestSequenceWrapAround(t *testing.T) {
	// More than 1024 flits exercises the 10-bit wire wrap in both seq and
	// ack reconstruction.
	for _, proto := range []Protocol{ProtocolCXL, ProtocolRXL} {
		t.Run(proto.String(), func(t *testing.T) {
			h := newHarness(t, proto, nil)
			const n = 3000
			for i := uint64(0); i < n; i++ {
				h.a.Submit(tagged(i))
			}
			h.eng.Run()
			wantInOrder(t, h.gotB, n)
		})
	}
}

func TestBidirectionalPiggybacking(t *testing.T) {
	h := newHarness(t, ProtocolCXL, func(c *Config) { c.CoalesceCount = 5 })
	const n = 300
	for i := uint64(0); i < n; i++ {
		h.a.Submit(tagged(i))
		h.b.Submit(tagged(i))
	}
	h.eng.Run()
	wantInOrder(t, h.gotB, n)
	wantInOrder(t, h.gotA, n)
	if h.a.Stats.PiggybackedAcks == 0 || h.b.Stats.PiggybackedAcks == 0 {
		t.Errorf("no piggybacked acks: a=%d b=%d",
			h.a.Stats.PiggybackedAcks, h.b.Stats.PiggybackedAcks)
	}
}

func TestNoPiggybackUsesStandaloneAcks(t *testing.T) {
	h := newHarness(t, ProtocolCXLNoPiggyback, nil)
	const n = 300
	for i := uint64(0); i < n; i++ {
		h.a.Submit(tagged(i))
		h.b.Submit(tagged(i))
	}
	h.eng.Run()
	wantInOrder(t, h.gotB, n)
	if h.a.Stats.PiggybackedAcks != 0 || h.b.Stats.PiggybackedAcks != 0 {
		t.Error("no-piggyback mode piggybacked an ack")
	}
	if h.b.Stats.AckFlitsSent == 0 {
		t.Error("no standalone acks sent")
	}
}

func TestReplayWindowBackpressure(t *testing.T) {
	h := newHarness(t, ProtocolRXL, func(c *Config) { c.ReplayBufferSize = 8 })
	const n = 200
	for i := uint64(0); i < n; i++ {
		h.a.Submit(tagged(i))
	}
	if len(h.a.replay) > 8 {
		t.Fatalf("window exceeded: %d", len(h.a.replay))
	}
	h.eng.Run()
	wantInOrder(t, h.gotB, n)
}

func TestCorruptionTriggersRetry(t *testing.T) {
	for _, proto := range []Protocol{ProtocolCXL, ProtocolCXLNoPiggyback, ProtocolRXL} {
		t.Run(proto.String(), func(t *testing.T) {
			h := newHarness(t, proto, nil)
			// Corrupt the 3rd data flit beyond FEC repair (two symbols in
			// one interleave way).
			seen := 0
			h.ab.FaultHook = func(f *flit.Flit) bool {
				if f.Header().Type != flit.TypeData {
					return false
				}
				seen++
				if seen == 3 {
					f.Raw[30] ^= 0xFF
					f.Raw[33] ^= 0xFF
				}
				return false
			}
			const n = 50
			for i := uint64(0); i < n; i++ {
				h.a.Submit(tagged(i))
			}
			h.eng.Run()
			wantInOrder(t, h.gotB, n)
			if h.a.Stats.Retransmissions == 0 {
				t.Error("corruption did not cause a retransmission")
			}
			if h.b.Stats.FecUncorrectable == 0 && h.b.Stats.CrcErrors == 0 {
				t.Error("corruption never detected")
			}
		})
	}
}

func TestFECCorrectsInFlightBurst(t *testing.T) {
	h := newHarness(t, ProtocolRXL, nil)
	seen := 0
	h.ab.FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeData {
			seen++
			if seen == 2 {
				// 3-byte burst: correctable by the interleaved SSC.
				f.Raw[100] ^= 0xA5
				f.Raw[101] ^= 0x5A
				f.Raw[102] ^= 0xFF
			}
		}
		return false
	}
	const n = 20
	for i := uint64(0); i < n; i++ {
		h.a.Submit(tagged(i))
	}
	h.eng.Run()
	wantInOrder(t, h.gotB, n)
	if h.b.Stats.FecCorrectedFlits != 1 {
		t.Errorf("FecCorrectedFlits = %d, want 1", h.b.Stats.FecCorrectedFlits)
	}
	if h.a.Stats.Retransmissions != 0 {
		t.Error("correctable burst should not need a retry")
	}
}

// dropNthData returns a FaultHook that silently drops the nth (1-based)
// data flit — the scripted equivalent of a switch discarding an
// uncorrectable flit.
func dropNthData(n int) func(*flit.Flit) bool {
	seen := 0
	return func(f *flit.Flit) bool {
		if f.Header().Type != flit.TypeData {
			return false
		}
		seen++
		return seen == n
	}
}

// TestFig4CXLMisforwardOnDrop reproduces Fig. 4 / Fig. 5a at the link
// layer: under baseline CXL, dropping flit #1 while flit #2 carries a
// piggybacked AckNum makes the receiver forward flit #2 prematurely. The
// delivered tag sequence is exactly the paper's A, C, B, C — a reordering
// plus a duplicate that the link layer cannot see.
func TestFig4CXLMisforwardOnDrop(t *testing.T) {
	h := newHarness(t, ProtocolCXL, func(c *Config) {
		c.CoalesceCount = 1 // ack every delivered flit, as in the figure
	})
	h.ab.FaultHook = dropNthData(2) // drop a's flit seq=1

	// Upstream flit #100: b sends one payload so a has an ack to piggyback.
	h.b.Submit(tagged(100))
	// Downstream flits #0..#3. #0 and #1 go out before b's flit arrives
	// (arrival at 12ns); #2 is submitted after, so it picks up the ack.
	h.a.Submit(tagged(0))
	h.a.Submit(tagged(1))
	h.eng.Schedule(13*sim.Nanosecond, func() { h.a.Submit(tagged(2)) })
	h.eng.Schedule(16*sim.Nanosecond, func() { h.a.Submit(tagged(3)) })
	h.eng.Run()

	want := []uint64{0, 2, 1, 2, 3} // the paper's A, C, B, C (after A)
	if len(h.gotB) != len(want) {
		t.Fatalf("delivered %v, want %v", h.gotB, want)
	}
	for i := range want {
		if h.gotB[i] != want[i] {
			t.Fatalf("delivered %v, want %v", h.gotB, want)
		}
	}
	if h.b.Stats.UnverifiedDelivered != 1 {
		t.Errorf("UnverifiedDelivered = %d, want 1", h.b.Stats.UnverifiedDelivered)
	}
	if h.b.Stats.GapsDetected == 0 {
		t.Error("the late gap detection never fired")
	}
}

// TestFig4RXLDetectsDrop runs the identical scenario under RXL: the drop is
// caught by the ISN CRC on the very next flit, and delivery is exactly-once
// in-order.
func TestFig4RXLDetectsDrop(t *testing.T) {
	h := newHarness(t, ProtocolRXL, func(c *Config) { c.CoalesceCount = 1 })
	h.ab.FaultHook = dropNthData(2)

	h.b.Submit(tagged(100))
	h.a.Submit(tagged(0))
	h.a.Submit(tagged(1))
	h.eng.Schedule(13*sim.Nanosecond, func() { h.a.Submit(tagged(2)) })
	h.eng.Schedule(16*sim.Nanosecond, func() { h.a.Submit(tagged(3)) })
	h.eng.Run()

	wantInOrder(t, h.gotB, 4)
	if h.b.Stats.UnverifiedDelivered != 0 {
		t.Error("RXL delivered an unverified flit")
	}
	if h.b.Stats.CrcErrors == 0 {
		t.Error("ISN mismatch never detected")
	}
	// RXL still piggybacked the ack (bandwidth parity with CXL option 1).
	if h.a.Stats.PiggybackedAcks == 0 {
		t.Error("RXL did not piggyback the ack")
	}
}

// TestFig4NoPiggybackDetectsDrop: disabling piggybacking (option 2 of
// Section 7.2.2) also closes the hole, at the cost of standalone ACK flits.
func TestFig4NoPiggybackDetectsDrop(t *testing.T) {
	h := newHarness(t, ProtocolCXLNoPiggyback, func(c *Config) { c.CoalesceCount = 1 })
	h.ab.FaultHook = dropNthData(2)

	h.b.Submit(tagged(100))
	h.a.Submit(tagged(0))
	h.a.Submit(tagged(1))
	h.eng.Schedule(13*sim.Nanosecond, func() { h.a.Submit(tagged(2)) })
	h.eng.Schedule(16*sim.Nanosecond, func() { h.a.Submit(tagged(3)) })
	h.eng.Run()

	wantInOrder(t, h.gotB, 4)
	if h.b.Stats.UnverifiedDelivered != 0 {
		t.Error("no-piggyback mode delivered an unverified flit")
	}
}

// TestGoBackNSingleDropReplaysWindow: one dropped flit costs a replay of
// every flit in flight behind it, not a single retransmission — the price
// of the one retry machine all three protocols share.
func TestGoBackNSingleDropReplaysWindow(t *testing.T) {
	h := newHarness(t, ProtocolCXLNoPiggyback, nil)
	h.ab.FaultHook = dropNthData(3)

	const n = 20
	for i := uint64(0); i < n; i++ {
		h.a.Submit(tagged(i))
	}
	h.eng.Run()

	if len(h.gotB) != n {
		t.Fatalf("delivered %d of %d", len(h.gotB), n)
	}
	if h.a.Stats.Retransmissions <= 1 {
		t.Fatalf("go-back-N retransmitted %d flits; expected a window replay", h.a.Stats.Retransmissions)
	}
}

func TestDropRecoveryLongStream(t *testing.T) {
	// Multiple scripted drops spread through a long stream: RXL and
	// no-piggyback CXL must deliver exactly-once in-order.
	for _, proto := range []Protocol{ProtocolCXLNoPiggyback, ProtocolRXL} {
		t.Run(proto.String(), func(t *testing.T) {
			h := newHarness(t, proto, nil)
			seen := 0
			h.ab.FaultHook = func(f *flit.Flit) bool {
				if f.Header().Type != flit.TypeData {
					return false
				}
				seen++
				return seen%97 == 13 // drop a handful of flits
			}
			const n = 1500
			for i := uint64(0); i < n; i++ {
				h.a.Submit(tagged(i))
			}
			h.eng.Run()
			wantInOrder(t, h.gotB, n)
		})
	}
}

func TestLostNakRecoveredByTimeout(t *testing.T) {
	h := newHarness(t, ProtocolRXL, func(c *Config) {
		c.RetryTimeout = 500 * sim.Nanosecond
	})
	h.ab.FaultHook = dropNthData(3)
	nakDropped := false
	h.ba.FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeNak && !nakDropped {
			nakDropped = true
			return true
		}
		return false
	}
	const n = 30
	for i := uint64(0); i < n; i++ {
		h.a.Submit(tagged(i))
	}
	h.eng.Run()
	wantInOrder(t, h.gotB, n)
	if !nakDropped {
		t.Fatal("scenario never dropped a NAK")
	}
	if h.a.Stats.TimeoutRetries == 0 && h.a.Stats.GoBackNRounds == 0 {
		t.Error("no recovery mechanism fired")
	}
}

func TestLostAckRecoveredByTimeout(t *testing.T) {
	h := newHarness(t, ProtocolCXLNoPiggyback, func(c *Config) {
		c.RetryTimeout = 500 * sim.Nanosecond
	})
	drops := 0
	h.ba.FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeAck && drops < 2 {
			drops++
			return true
		}
		return false
	}
	const n = 100
	for i := uint64(0); i < n; i++ {
		h.a.Submit(tagged(i))
	}
	h.eng.Run()
	wantInOrder(t, h.gotB, n)
	if len(h.a.replay) != 0 {
		t.Errorf("%d flits stuck in replay buffer", len(h.a.replay))
	}
}

// TestRandomBERDirectLinkExactlyOnce: under a noisy direct link every
// protocol (including baseline CXL, which is only vulnerable to *drops*,
// not corruption) must deliver exactly-once in-order — the paper's Section
// 7.1.1 claim that direct connections are safe.
func TestRandomBERDirectLinkExactlyOnce(t *testing.T) {
	for _, proto := range []Protocol{ProtocolCXL, ProtocolCXLNoPiggyback, ProtocolRXL} {
		t.Run(proto.String(), func(t *testing.T) {
			h := newHarness(t, proto, nil)
			rng := phy.NewRNG(42)
			h.ab.PathSched, h.ab.PathHops = phy.NewSharedSchedule(2e-6, 0.3, rng.Split(), flit.Bits), 1
			h.ba.PathSched, h.ba.PathHops = phy.NewSharedSchedule(2e-6, 0.3, rng.Split(), flit.Bits), 1
			const n = 4000
			for i := uint64(0); i < n; i++ {
				h.a.Submit(tagged(i))
			}
			h.eng.Run()
			wantInOrder(t, h.gotB, n)
		})
	}
}

func TestRandomBERHighErrorStress(t *testing.T) {
	// An aggressively noisy link: correctness must hold even when retries
	// are frequent and control flits get corrupted.
	h := newHarness(t, ProtocolRXL, func(c *Config) {
		c.RetryTimeout = 1 * sim.Microsecond
	})
	rng := phy.NewRNG(7)
	h.ab.PathSched, h.ab.PathHops = phy.NewSharedSchedule(5e-5, 0.5, rng.Split(), flit.Bits), 1
	h.ba.PathSched, h.ba.PathHops = phy.NewSharedSchedule(5e-5, 0.5, rng.Split(), flit.Bits), 1
	const n = 3000
	for i := uint64(0); i < n; i++ {
		h.a.Submit(tagged(i))
		h.b.Submit(tagged(i))
	}
	h.eng.Run()
	wantInOrder(t, h.gotB, n)
	wantInOrder(t, h.gotA, n)
	if h.a.Stats.Retransmissions == 0 {
		t.Error("stress test saw no retransmissions; BER too low to be meaningful")
	}
}

func TestSubmitOversizedPanics(t *testing.T) {
	h := newHarness(t, ProtocolRXL, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	h.a.Submit(make([]byte, flit.PayloadSize+1))
}

// TestSubmitOwnsOneBufferPerPayload: Submit copies the caller's bytes once
// into the entry that carries them to their acknowledgment, so the caller
// may reuse its buffer at once, and an entry recycled after its ack still
// zero-pads a shorter payload.
func TestSubmitOwnsOneBufferPerPayload(t *testing.T) {
	h := newHarness(t, ProtocolRXL, nil)
	var got [][]byte
	h.b.Deliver = func(p []byte) { got = append(got, bytes.Clone(p)) }

	buf := bytes.Repeat([]byte{0xFF}, flit.PayloadSize)
	h.a.Submit(buf)
	clear(buf) // the caller's buffer is its own again
	h.eng.Run()
	if len(h.a.replay) != 0 || len(h.a.free) != 1 {
		t.Fatalf("after the ack: %d outstanding, %d free entries", len(h.a.replay), len(h.a.free))
	}
	h.a.Submit([]byte{1, 2, 3}) // rides the recycled entry
	h.eng.Run()
	if len(h.a.free) != 1 {
		t.Fatalf("second payload did not reuse the freed entry: %d free", len(h.a.free))
	}

	want := [][]byte{bytes.Repeat([]byte{0xFF}, flit.PayloadSize), append([]byte{1, 2, 3}, make([]byte, flit.PayloadSize-3)...)}
	if len(got) != 2 || !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
		t.Fatalf("delivered %x, want %x", got, want)
	}
}

// TestTimerArmsAllocateNothing: the retry and ACK timers' engine sinks are
// bound once in NewPeer, so arming either on a warmed peer and draining the
// engine allocates nothing.
func TestTimerArmsAllocateNothing(t *testing.T) {
	h := newHarness(t, ProtocolRXL, nil)
	h.a.Submit(tagged(0))
	h.eng.Run()
	retries := h.a.Stats.TimeoutRetries

	// A retry timer armed over an outstanding flit whose ACK lands before
	// the deadline: the timer fires on an empty window and retires.
	e := &replayEntry{}
	retry := testing.AllocsPerRun(100, func() {
		e.lastSent = h.eng.Now()
		h.a.replay = append(h.a.replay, e)
		h.a.armRetryTimer()
		h.a.replay = h.a.replay[:0]
		h.eng.Run()
	})
	// An ACK timer whose acknowledgment piggybacked before it fired.
	ack := testing.AllocsPerRun(100, func() {
		h.b.armAckTimer()
		h.eng.Run()
	})
	if retry != 0 || ack != 0 {
		t.Fatalf("allocations per arm: retry timer %v, ACK timer %v; want 0", retry, ack)
	}
	if h.a.Stats.TimeoutRetries != retries {
		t.Fatalf("%d timeout retries on an acknowledged window", h.a.Stats.TimeoutRetries-retries)
	}
}

func TestProtocolStrings(t *testing.T) {
	if ProtocolCXL.String() != "CXL" || ProtocolCXLNoPiggyback.String() != "CXL-noPB" ||
		ProtocolRXL.String() != "RXL" || Protocol(99).String() != "Protocol(?)" {
		t.Error("protocol strings wrong")
	}
}

func TestConfigSanitize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized window did not panic")
		}
	}()
	bad := Config{ReplayBufferSize: 512}
	bad.sanitize()
}

// TestZeroConfigResolvesToDefaults: a Config naming only its protocol
// resolves its sizes and timeouts to the DefaultConfig values, and its
// CoalesceCount to 1 — zero means "acknowledge every flit".
func TestZeroConfigResolvesToDefaults(t *testing.T) {
	type resolved struct {
		coalesce, window int
		ack, retry       sim.Time
	}
	want := resolved{1, 128, 200 * sim.Nanosecond, 2 * sim.Microsecond}
	for _, proto := range []Protocol{ProtocolCXL, ProtocolCXLNoPiggyback, ProtocolRXL} {
		c := NewPeer("a", sim.NewEngine(), Config{Protocol: proto}).Cfg
		if got := (resolved{c.CoalesceCount, c.ReplayBufferSize, c.AckTimeout, c.RetryTimeout}); got != want {
			t.Errorf("%v resolved %+v, want %+v", proto, got, want)
		}
	}
}

// TestConfigJSONHoldsOnlyChoices: the JSON form of a Config — what a job
// spec's LinkConfig names and its cache key hashes — carries the protocol
// choices only, never the wiring the fabric sets on every peer.
func TestConfigJSONHoldsOnlyChoices(t *testing.T) {
	b, err := json.Marshal(DefaultConfig(ProtocolRXL))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(fields))
	if want := []string{"AckTimeout", "CoalesceCount", "Protocol", "ReplayBufferSize", "RetryTimeout"}; !slices.Equal(keys, want) {
		t.Errorf("Config JSON keys %v, want %v", keys, want)
	}
}

func BenchmarkLinkThroughputRXL(b *testing.B) {
	benchThroughput(b, ProtocolRXL, 0)
}

func BenchmarkLinkThroughputCXL(b *testing.B) {
	benchThroughput(b, ProtocolCXL, 0)
}

func BenchmarkLinkThroughputRXLNoisy(b *testing.B) {
	benchThroughput(b, ProtocolRXL, 1e-5)
}

func benchThroughput(b *testing.B, proto Protocol, ber float64) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(proto)
	a := NewPeer("a", eng, cfg)
	bb := NewPeer("b", eng, cfg)
	delivered := 0
	bb.Deliver = func([]byte) { delivered++ }
	ab, _ := connectDirect(eng, a, bb, sim.FlitTime, 10*sim.Nanosecond)
	if ber > 0 {
		ab.PathSched, ab.PathHops = phy.NewSharedSchedule(ber, 0.3, phy.NewRNG(1), flit.Bits), 1
	}
	payload := make([]byte, flit.PayloadSize)
	b.SetBytes(flit.PayloadSize)
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
}
