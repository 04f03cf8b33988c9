package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/link"
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
