package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/phy"
)

// channelStats is the error-process accounting a fabric run leaves
// behind: one entry per direction's shared path schedule.
type channelStats struct {
	BitsSeen, BitsFlipped, ErrorEvents, UnitsTouched uint64
}

// schedStats snapshots a shared schedule's channel accounting.
func schedStats(s *phy.SharedSchedule) channelStats {
	return channelStats{
		BitsSeen:     s.BitsSeen,
		BitsFlipped:  s.BitsFlipped,
		ErrorEvents:  s.ErrorEvents,
		UnitsTouched: s.UnitsTouched,
	}
}

// runOnce executes one experiment and returns its result (with the config
// blanked so fast and slow runs compare equal) plus the per-direction
// shared-schedule statistics.
func runOnce(t *testing.T, cfg Config, n int) (Result, []channelStats) {
	t.Helper()
	f, err := NewFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp := Experiment{Fabric: f, N: n}
	res := exp.Run()
	res.Cfg = Config{}
	var chs []channelStats
	if f.FwdSched != nil {
		chs = append(chs, schedStats(f.FwdSched), schedStats(f.BwdSched))
	}
	return res, chs
}

// assertFastSlowIdentical runs cfg with the fast path on and off and
// requires bit-identical results: failure taxonomy, link and switch
// statistics, goodput, simulated time, and per-wire channel accounting.
func assertFastSlowIdentical(t *testing.T, cfg Config, n int) {
	t.Helper()
	fastCfg, slowCfg := cfg, cfg
	fastCfg.NoFastPath = false
	slowCfg.NoFastPath = true

	fastRes, fastChs := runOnce(t, fastCfg, n)
	slowRes, slowChs := runOnce(t, slowCfg, n)

	if !reflect.DeepEqual(fastRes, slowRes) {
		t.Errorf("results diverge:\nfast: %+v\nslow: %+v", fastRes, slowRes)
	}
	if !reflect.DeepEqual(fastChs, slowChs) {
		t.Errorf("channel stats diverge:\nfast: %+v\nslow: %+v", fastChs, slowChs)
	}
}

// TestFastPathDifferential is the correctness bar of the error-event fast
// path: for identical seeds, FastPath=true and FastPath=false must produce
// bit-identical experiment results — same Fail_data/Fail_order counts,
// same retransmissions, same channel statistics, same simulated end time —
// across all three protocols, switching depths 0-2, and a BER grid
// spanning error-free, rare-error, and retry-heavy operating points.
func TestFastPathDifferential(t *testing.T) {
	const n = 600
	for _, proto := range Protocols {
		for _, levels := range []int{0, 1, 2} {
			for _, ber := range []float64{0, 1e-6, 1e-4} {
				cfg := Config{
					Protocol:  proto,
					Levels:    levels,
					BER:       ber,
					BurstProb: 0.4,
					Seed:      1000*uint64(levels) + 7,
				}
				name := fmt.Sprintf("%s/L%d/BER%g", proto, levels, ber)
				t.Run(name, func(t *testing.T) {
					assertFastSlowIdentical(t, cfg, n)
				})
			}
		}
	}
}

// TestFastPathDifferentialInternalCorruption adds switch-internal bit
// flips, which force clean flits onto the byte-level path mid-fabric: the
// materialized image must be byte-identical to an eagerly sealed one, or
// CRC/FEC verdicts — and therefore failure counts — diverge.
func TestFastPathDifferentialInternalCorruption(t *testing.T) {
	for _, proto := range Protocols {
		cfg := Config{
			Protocol:         proto,
			Levels:           2,
			BER:              1e-5,
			InternalFlipProb: 2e-3,
			Seed:             99,
		}
		t.Run(proto.String(), func(t *testing.T) {
			assertFastSlowIdentical(t, cfg, 600)
		})
	}
}
