package core

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Adversarial property tests: seeded random drop/corrupt patterns at the
// switch, across many seeds. The invariants under test are the paper's
// central guarantees:
//
//   - RXL and CXL-no-piggyback always deliver exactly-once, in-order,
//     intact — no matter where drops land.
//   - Baseline CXL never delivers *corrupted* data from wire errors (its
//     CRC still works); its failures are confined to ordering/duplication
//     — and across enough seeds with piggybacking those failures do
//     appear.

// adversaryRun pushes a bidirectional workload through a one-switch
// fabric whose first forward hop randomly drops or corrupts data flits.
func adversaryRun(t *testing.T, proto link.Protocol, seed uint64) FailureCounts {
	t.Helper()
	cfg := link.DefaultConfig(proto)
	cfg.CoalesceCount = 1
	f := MustNewFabric(Config{Protocol: proto, Levels: 1, LinkConfig: &cfg, Seed: seed})

	const n = 120
	col := NewCollector(n)
	f.B().Deliver = col.Deliver

	rng := phy.NewRNG(seed * 2654435761)
	f.Chain.Fwd[0].FaultHook = func(fl *flit.Flit) bool {
		if fl.Header().Type != flit.TypeData {
			return false
		}
		switch rng.Intn(20) {
		case 0: // silent drop (5%)
			return true
		case 1: // uncorrectable corruption: the switch FEC will drop it
			fl.Image(nil)[30] ^= rng.NonzeroByte()
			fl.Image(nil)[33] ^= rng.NonzeroByte()
		case 2: // correctable single-symbol error
			fl.Image(nil)[40] ^= rng.NonzeroByte()
		}
		return false
	}

	for i := 0; i < n; i++ {
		tag := uint64(i)
		f.Eng.Schedule(sim.Time(i)*60*sim.Nanosecond, func() {
			f.A().Submit(SealedPayload(tag))
		})
		f.Eng.Schedule(sim.Time(i)*60*sim.Nanosecond+30*sim.Nanosecond, func() {
			f.B().Submit(SealedPayload(5000 + tag))
		})
	}
	f.Run()
	return col.Finish()
}

func TestAdversaryRXLAlwaysExactlyOnce(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		fc := adversaryRun(t, link.ProtocolRXL, seed)
		if !fc.Clean() {
			t.Fatalf("seed %d: RXL violated exactly-once: %+v", seed, fc)
		}
	}
}

func TestAdversaryNoPiggybackAlwaysExactlyOnce(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		fc := adversaryRun(t, link.ProtocolCXLNoPiggyback, seed)
		if !fc.Clean() {
			t.Fatalf("seed %d: no-piggyback CXL violated exactly-once: %+v", seed, fc)
		}
	}
}

func TestAdversaryCXLNeverCorruptsButMisorders(t *testing.T) {
	sawOrderingHazard := false
	for seed := uint64(1); seed <= 25; seed++ {
		fc := adversaryRun(t, link.ProtocolCXL, seed)
		// Wire corruption must never reach the application: the link CRC
		// still protects data integrity, only sequencing is blind.
		if fc.FailData != 0 {
			t.Fatalf("seed %d: CXL delivered corrupted data: %+v", seed, fc)
		}
		if fc.FailOrder > 0 || fc.Duplicates > 0 || fc.Missing > 0 {
			sawOrderingHazard = true
		}
	}
	if !sawOrderingHazard {
		t.Fatal("no seed produced a CXL ordering hazard; adversary too weak")
	}
}
