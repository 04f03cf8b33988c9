package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzCellFastMatchesReference runs one small fuzz-decoded scenario cell
// on the fast path and on the byte-level reference and requires the two
// results to be bit-identical under TestScenarioDifferentialMatrix's
// projection (RunDifferential: every MeshResult field but Cfg). An RXL
// cell must also deliver with no ordering failure, duplicate or corrupt
// payload. The decoder reaches every topology kind at 2–4 routers per
// side, every workload kind (replay traces included), every fault kind
// with fuzzed timings, every protocol, BER in [1e-7, 1e-3] (inside fault
// windows too), burst, CoalesceCount 1–16 and n 1–64; an input whose
// workload cannot be laid out on its topology is skipped, as the matrix
// skips it.
func FuzzCellFastMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, kind, fault uint8, timing uint32, proto uint8, ber uint16, burst, coalesce, n uint8, seed uint64, trace []byte) {
		cell, payloads := decodeFuzzCell(shape, kind, fault, timing, proto, ber, burst, coalesce, n, seed, trace)
		if !cell.Compatible() {
			t.Skip("workload does not fit the topology")
		}
		fast, slow, identical, err := cell.RunDifferential(payloads)
		if err != nil {
			t.Fatalf("%s: %v", cell.Name(), err)
		}
		if !identical {
			t.Fatalf("%s n=%d: fast/slow diverge:\nfast: %+v\nslow: %+v", cell.Name(), payloads, fast.Result, slow.Result)
		}
		if cell.Cfg.Protocol == link.ProtocolRXL {
			if sum, _ := fast.Result.Totals(); sum.FailOrder != 0 || sum.Duplicates != 0 || sum.FailData != 0 {
				t.Fatalf("%s n=%d: RXL delivered ooo=%d dup=%d corrupt=%d", cell.Name(), payloads, sum.FailOrder, sum.Duplicates, sum.FailData)
			}
		}
	})
}

// decodeFuzzCell maps the fuzz arguments onto a valid scenario cell and
// its payload count per flow. Every argument value decodes to some cell.
func decodeFuzzCell(shape, kind, fault uint8, timing uint32, proto uint8, ber uint16, burst, coalesce, n uint8, seed uint64, trace []byte) (ScenarioCell, int) {
	topo := Topology{Kind: TopoMesh, W: 2 + int(shape>>1&3)%3, H: 2 + int(shape>>3&3)%3}
	if shape&1 == 1 {
		topo.Kind = TopoTorus
	}
	nodes := topo.W * topo.H

	var wl workload.Spec
	p := int(kind / 6)
	switch kind % 6 {
	case 0:
		wl = workload.Spec{Kind: workload.KindUniform, Flows: 1 + p%12}
	case 1:
		wl = workload.Spec{Kind: workload.KindZipf, Flows: 1 + p%12, Skew: 0.5 + float64(p/12)/2}
	case 2:
		wl = workload.Spec{Kind: workload.KindTranspose}
	case 3:
		wl = workload.Spec{Kind: workload.KindBitReverse}
	case 4:
		wl = workload.Spec{Kind: workload.KindSingleSink, SinkX: p % topo.W, SinkY: p / topo.W % topo.H}
	default:
		// Up to eight "src dst count" records, node IDs folded onto the
		// fabric; a self-flow record is the trace's own business.
		var b strings.Builder
		for i := 0; i+2 < len(trace) && i < 24; i += 3 {
			fmt.Fprintf(&b, "%d %d %d\n", int(trace[i])%nodes, int(trace[i+1])%nodes, 1+int(trace[i+2])%64)
		}
		if b.Len() == 0 {
			b.WriteString("1 0\n")
		}
		wl = workload.Spec{Kind: workload.KindReplay, Trace: b.String()}
	}

	cfg := Config{
		Protocol:  Protocols[int(proto)%len(Protocols)],
		BER:       1e-7 * math.Pow(10, 4*float64(ber)/math.MaxUint16),
		BurstProb: float64(burst%231) / 256,
		Seed:      seed,
	}
	lc := link.DefaultConfig(cfg.Protocol)
	lc.CoalesceCount = 1 + int(coalesce%16)
	cfg.LinkConfig = &lc

	// A degrade or storm factor keeps BER × Factor inside [1e-7, 1e-3] as
	// well: past it a path stops delivering at all (a 2×4 torus degraded
	// to 3e-3 had not delivered one payload after 14 simulated seconds),
	// so an input would run until the fuzzer's deadline.
	start := 1 + int64(timing%1024)
	duration := 1 + int64(timing>>10%512)
	factor := 1 + float64(fault>>2)/63*(1e-3/cfg.BER-1)
	var fs FaultScript
	switch fault % 4 {
	case 0:
		fs = FaultScript{Kind: FaultNone}
	case 1:
		fs = FaultScript{Kind: FaultDegrade, StartNS: start, Factor: factor}
	case 2:
		fs = FaultScript{Kind: FaultStorm, StartNS: start, DurationNS: duration, Factor: factor}
	default:
		fs = FaultScript{Kind: FaultFlap, StartNS: start, DurationNS: duration,
			Flaps: 1 + int(timing>>19%4), PeriodNS: duration + 1 + int64(timing>>21%512)}
	}
	return ScenarioCell{Cfg: cfg, Topo: topo, Workload: wl, Fault: fs}, 1 + int(n%64)
}

// FuzzExperimentFastMatchesReference is FuzzCellFastMatchesReference's
// chain sibling: one fuzz-decoded Experiment on a switch chain, run on the
// fast path and on the byte-level reference, must give bit-identical
// results under the same projection (every Result field but Cfg) and the
// same per-direction channel accounting. The decoder reaches every
// protocol at levels 1–4, BER in [1e-7, 1e-4], burst, CoalesceCount 1–16,
// the propagation delay and n 1–256, and an RXL chain may also carry
// switch-internal flips of up to 1e-2 per flit.
//
// An RXL chain without flips must deliver with no ordering failure,
// duplicate or corrupt payload. With flips it need not: the ISN fold XORs
// the sequence number into the last two payload bytes, so a flip of one
// of those ten bits inside a switch makes the flit pass the check for the
// sequence number that differs in that bit, and a receiver that expects
// that number mid-replay accepts it out of order (the committed input
// rxl-L4-flip-isn-fold-alias delivers 9 out of order and 1 duplicate).
//
// Two bounds keep every input to milliseconds, not the fuzzer's deadline.
// The BER stops a decade below the mesh decoder's: every chain link draws
// its own errors, and past ≈ 1e-4 go-back-N collapses (a CXL chain at 4
// levels, BER 1e-3 and burst 0.9 took 2.1 M retransmissions for 256
// payloads, some 300 times a 1e-4 input's cost).
// And CXL chains get no flips: a CXL switch re-seals a flipped header, and
// the link can lose step with its receiver for millions of replays (a
// CXL-noPB chain at 4 levels, BER 1e-4 and flips 1e-2 took 2.4 M
// retransmissions, and 89 of 256 payloads went missing).
// TestFastPathDifferentialInternalCorruption holds both CXL variants
// under flips to the reference on fixed inputs.
func FuzzExperimentFastMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, proto, levels uint8, ber uint16, burst, flip, coalesce, prop uint8, n uint16, seed uint64) {
		cfg, payloads := decodeFuzzChain(proto, levels, ber, burst, flip, coalesce, prop, n, seed)
		fastCfg, slowCfg := cfg, cfg
		slowCfg.NoFastPath = true
		fast, fastChs := runOnce(t, fastCfg, payloads)
		slow, slowChs := runOnce(t, slowCfg, payloads)
		name := fmt.Sprintf("%s L%d BER=%g flip=%g n=%d", cfg.Protocol, cfg.Levels, cfg.BER, cfg.InternalFlipProb, payloads)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%s: fast/slow diverge:\nfast: %+v\nslow: %+v", name, fast, slow)
		}
		if !reflect.DeepEqual(fastChs, slowChs) {
			t.Fatalf("%s: channel stats diverge:\nfast: %+v\nslow: %+v", name, fastChs, slowChs)
		}
		if cfg.Protocol == link.ProtocolRXL && cfg.InternalFlipProb == 0 {
			if fc := fast.Failures; fc.FailOrder != 0 || fc.Duplicates != 0 || fc.FailData != 0 {
				t.Fatalf("%s: RXL delivered ooo=%d dup=%d corrupt=%d", name, fc.FailOrder, fc.Duplicates, fc.FailData)
			}
		}
	})
}

// decodeFuzzChain maps the fuzz arguments onto a valid chain
// configuration and its payload count. Every argument value decodes to
// some configuration.
func decodeFuzzChain(proto, levels uint8, ber uint16, burst, flip, coalesce, prop uint8, n uint16, seed uint64) (Config, int) {
	cfg := Config{
		Protocol:  Protocols[int(proto)%len(Protocols)],
		Levels:    1 + int(levels%4),
		BER:       1e-7 * math.Pow(10, 3*float64(ber)/math.MaxUint16),
		BurstProb: float64(burst%231) / 256,
		Seed:      seed,
		// prop 0 keeps the default propagation delay.
		Propagation: sim.Time(prop%64) * sim.Nanosecond,
	}
	if flip >= 128 && cfg.Protocol == link.ProtocolRXL {
		cfg.InternalFlipProb = 1e-2 * float64(flip-127) / 128
	}
	lc := link.DefaultConfig(cfg.Protocol)
	lc.CoalesceCount = 1 + int(coalesce%16)
	cfg.LinkConfig = &lc
	return cfg, 1 + int(n%256)
}
