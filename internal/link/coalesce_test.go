package link

import (
	"testing"

	"repro/internal/sim"
)

// ACK coalescing ablation (DESIGN.md): the coalescing level trades
// reverse bandwidth (Eq. 13) against transmitter buffer occupancy — a
// deeper coalesce means ACKs arrive later and the replay window sits
// fuller. These tests and benchmarks measure both sides of the trade.

// runCoalesce drives a one-way stream and returns the ACK flits sent by
// the receiver and the peak replay occupancy at the transmitter.
func runCoalesce(t testing.TB, coalesce, n int) (ackFlits uint64, peakOccupancy int) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(ProtocolCXLNoPiggyback)
	cfg.CoalesceCount = coalesce
	a := NewPeer("A", eng, cfg)
	b := NewPeer("B", eng, cfg)
	connectDirect(eng, a, b, sim.FlitTime, 10*sim.Nanosecond)

	delivered := 0
	b.Deliver = func([]byte) { delivered++ }
	payload := make([]byte, 16)
	for i := 0; i < n; i++ {
		a.Submit(payload)
		if occ := len(a.replay); occ > peakOccupancy {
			peakOccupancy = occ
		}
	}
	// Sample occupancy while draining.
	for eng.Pending() > 0 {
		eng.AdvanceTo(eng.Now() + 10*sim.Nanosecond)
		if occ := len(a.replay); occ > peakOccupancy {
			peakOccupancy = occ
		}
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	return b.Stats.AckFlitsSent, peakOccupancy
}

// TestCoalescingTradeOff: more coalescing means fewer ACK flits but a
// fuller replay window.
func TestCoalescingTradeOff(t *testing.T) {
	const n = 2000
	acks1, occ1 := runCoalesce(t, 1, n)
	acks10, occ10 := runCoalesce(t, 10, n)
	acks50, occ50 := runCoalesce(t, 50, n)

	if !(acks1 > acks10 && acks10 > acks50) {
		t.Errorf("ACK flits not decreasing with coalescing: %d, %d, %d", acks1, acks10, acks50)
	}
	if !(occ1 <= occ10 && occ10 <= occ50) {
		t.Errorf("peak occupancy not increasing with coalescing: %d, %d, %d", occ1, occ10, occ50)
	}
	// Eq. 13: ACK flits per data flit ≈ 1/coalesce.
	ratio := float64(acks10) / float64(n)
	if ratio < 0.08 || ratio > 0.12 {
		t.Errorf("ACK overhead at coalesce=10 is %.3f, want ≈0.1", ratio)
	}
	t.Logf("coalesce=1: acks=%d occ=%d; =10: acks=%d occ=%d; =50: acks=%d occ=%d",
		acks1, occ1, acks10, occ10, acks50, occ50)
}

// BenchmarkCoalescingAblation measures simulator throughput across
// coalescing levels and reports the measured ACK overhead (Eq. 13) and
// peak buffer occupancy per level.
func BenchmarkCoalescingAblation(b *testing.B) {
	for _, cc := range []int{1, 2, 10, 50} {
		b.Run(benchName(cc), func(b *testing.B) {
			eng := sim.NewEngine()
			cfg := DefaultConfig(ProtocolCXLNoPiggyback)
			cfg.CoalesceCount = cc
			a := NewPeer("A", eng, cfg)
			pb := NewPeer("B", eng, cfg)
			connectDirect(eng, a, pb, sim.FlitTime, 10*sim.Nanosecond)
			delivered := 0
			pb.Deliver = func([]byte) { delivered++ }
			payload := make([]byte, 16)
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
			b.ReportMetric(float64(pb.Stats.AckFlitsSent)/float64(b.N), "acks/op")
		})
	}
}

func benchName(cc int) string {
	switch cc {
	case 1:
		return "coalesce=1"
	case 2:
		return "coalesce=2"
	case 10:
		return "coalesce=10"
	default:
		return "coalesce=50"
	}
}
