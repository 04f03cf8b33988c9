// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark both
// measures its code path and reports the reproduced paper quantity as a
// custom metric, so `go test -bench=. -benchmem` regenerates every number
// the paper reports:
//
//	E1-E5   Section 7.1 equations (FER, p_correct, FIT direct/switched)
//	E6      Fig. 8 FIT sweep
//	E7-E10  Section 7.2 bandwidth-loss equations
//	E11-E13 Fig. 4 / Fig. 5 deterministic failure scenarios
//	E14     Section 2.5 FEC burst-detection fractions
//	E15     Section 4.1 CRC detection (see internal/crc for the exhaustive tests)
//	E16     Section 7.3 hardware cost
//	E17     Fig. 3 flit encode pipeline
//	E18     parallel sharded runner
//
// BenchmarkFloors at the bottom holds the host-independent speed ratios
// the fast paths must keep. Nothing else here times the system: absolute
// throughput lives in bench/ (bash bench/run.sh).
package rxl_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/crc"
	"repro/internal/flit"
	"repro/internal/hwcost"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/reliability"
	"repro/internal/rs"
)

// --- E1-E5: Section 7.1 equations ---------------------------------------

// BenchmarkEq1FER regenerates Eq. 1 (FER ≈ 2.0e-3 at BER 1e-6).
func BenchmarkEq1FER(b *testing.B) {
	p := reliability.DefaultParams()
	var v float64
	for i := 0; i < b.N; i++ {
		v = p.FER()
	}
	b.ReportMetric(v, "FER")
}

// BenchmarkEq3Correctable regenerates Eq. 3 (p_correct > 98.5%).
func BenchmarkEq3Correctable(b *testing.B) {
	p := reliability.DefaultParams()
	var v float64
	for i := 0; i < b.N; i++ {
		v = p.PCorrect()
	}
	b.ReportMetric(v, "p_correct")
}

// BenchmarkEq5DirectFIT regenerates Eq. 4-5 (FIT ≈ 2.9e-3 direct).
func BenchmarkEq5DirectFIT(b *testing.B) {
	p := reliability.DefaultParams()
	var v float64
	for i := 0; i < b.N; i++ {
		v = p.FITDirect()
	}
	b.ReportMetric(v*1e3, "microFIT")
}

// BenchmarkEq8SwitchedFIT regenerates Eq. 6-8 (FIT ≈ 5.4e15, CXL 1 switch).
func BenchmarkEq8SwitchedFIT(b *testing.B) {
	p := reliability.DefaultParams()
	var v float64
	for i := 0; i < b.N; i++ {
		v = p.FITCXL(1)
	}
	b.ReportMetric(v/1e15, "petaFIT")
}

// BenchmarkEq10RXLFIT regenerates Eq. 9-10 (FIT ≈ 2.9e-3, RXL 1 switch).
func BenchmarkEq10RXLFIT(b *testing.B) {
	p := reliability.DefaultParams()
	var v float64
	for i := 0; i < b.N; i++ {
		v = p.FITRXL(1)
	}
	b.ReportMetric(v*1e3, "microFIT")
}

// --- E6: Fig. 8 ----------------------------------------------------------

// BenchmarkFig8FITSweep regenerates the full Fig. 8 series (levels 0-8)
// and reports the CXL/RXL improvement ratio at one switching level
// (paper: >1e18).
func BenchmarkFig8FITSweep(b *testing.B) {
	p := reliability.DefaultParams()
	var pts []reliability.Point
	for i := 0; i < b.N; i++ {
		pts = p.Fig8(8)
	}
	b.ReportMetric(pts[1].FITCXL/pts[1].FITRXL/1e17, "improvement_e17")
}

// --- E7-E10: Section 7.2 bandwidth equations ------------------------------

// BenchmarkEq11BWDirect regenerates Eq. 11 (BW loss ≈ 0.15% direct).
func BenchmarkEq11BWDirect(b *testing.B) {
	p := rxl.DefaultPerformance()
	var v float64
	for i := 0; i < b.N; i++ {
		v = p.BWLossDirect()
	}
	b.ReportMetric(100*v, "bwloss_pct")
}

// BenchmarkEq12BWSwitched regenerates Eq. 12 (≈0.30% with one switch).
func BenchmarkEq12BWSwitched(b *testing.B) {
	p := rxl.DefaultPerformance()
	var v float64
	for i := 0; i < b.N; i++ {
		v = p.BWLossSwitched(1)
	}
	b.ReportMetric(100*v, "bwloss_pct")
}

// BenchmarkEq13BWNoPiggyback regenerates Eq. 13 (loss = p_coalescing).
func BenchmarkEq13BWNoPiggyback(b *testing.B) {
	p := rxl.DefaultPerformance()
	var v float64
	for i := 0; i < b.N; i++ {
		v = p.BWLossNoPiggyback()
	}
	b.ReportMetric(100*v, "bwloss_pct")
}

// BenchmarkEq14BWRXL regenerates Eq. 14 (RXL ≈ 0.30%, same as Eq. 12).
func BenchmarkEq14BWRXL(b *testing.B) {
	p := rxl.DefaultPerformance()
	var v float64
	for i := 0; i < b.N; i++ {
		v = p.BWLossRXL(1)
	}
	b.ReportMetric(100*v, "bwloss_pct")
}

// --- E11-E13: deterministic failure scenarios -----------------------------

// BenchmarkFig4CXL runs the Fig. 4 drop script under CXL; the metric is
// the misorder count (paper: 1 — the failure occurs).
func BenchmarkFig4CXL(b *testing.B) {
	mis := 0
	for i := 0; i < b.N; i++ {
		if core.RunFig4(rxl.CXL).Misordered {
			mis = 1
		}
	}
	b.ReportMetric(float64(mis), "misordered")
}

// BenchmarkFig4RXL runs the same script under RXL (paper: 0 misorders).
func BenchmarkFig4RXL(b *testing.B) {
	mis := 0
	for i := 0; i < b.N; i++ {
		if core.RunFig4(rxl.RXL).Misordered {
			mis = 1
		}
	}
	b.ReportMetric(float64(mis), "misordered")
}

// BenchmarkFig5aCXL: duplicate request executions under CXL (paper: ≥1).
func BenchmarkFig5aCXL(b *testing.B) {
	var dups uint64
	for i := 0; i < b.N; i++ {
		dups = core.RunFig5a(rxl.CXL).DuplicateExecutions
	}
	b.ReportMetric(float64(dups), "dup_exec")
}

// BenchmarkFig5aRXL: duplicate request executions under RXL (paper: 0).
func BenchmarkFig5aRXL(b *testing.B) {
	var dups uint64
	for i := 0; i < b.N; i++ {
		dups = core.RunFig5a(rxl.RXL).DuplicateExecutions
	}
	b.ReportMetric(float64(dups), "dup_exec")
}

// BenchmarkFig5bCXL: intra-CQID ordering violations under CXL (paper: ≥1).
func BenchmarkFig5bCXL(b *testing.B) {
	var ooo uint64
	for i := 0; i < b.N; i++ {
		ooo = core.RunFig5b(rxl.CXL).OutOfOrderData
	}
	b.ReportMetric(float64(ooo), "ooo_data")
}

// BenchmarkFig5bRXL: intra-CQID ordering violations under RXL (paper: 0).
func BenchmarkFig5bRXL(b *testing.B) {
	var ooo uint64
	for i := 0; i < b.N; i++ {
		ooo = core.RunFig5b(rxl.RXL).OutOfOrderData
	}
	b.ReportMetric(float64(ooo), "ooo_data")
}

// --- E14: FEC burst detection (Section 2.5) -------------------------------

// BenchmarkFECBurstDetection measures burst-injection decode throughput
// and reports the detection fraction for 4-symbol bursts (paper: 2/3).
func BenchmarkFECBurstDetection(b *testing.B) {
	const trialsPerOp = 200
	var det float64
	for i := 0; i < b.N; i++ {
		o := reliability.MeasureFECBurst(4, trialsPerOp, uint64(i)+1)
		det = o.DetectionRate()
	}
	b.ReportMetric(det, "detection_4B")
}

// --- E15: CRC detection (Section 4.1) -------------------------------------

// BenchmarkCRCISNEncode measures the ISN-folded CRC encode rate over full
// flit inputs; set against BenchmarkCRCPlainEncode it shows the ISN costs
// no throughput.
func BenchmarkCRCISNEncode(b *testing.B) {
	buf := make([]byte, 242)
	phy.NewRNG(1).Fill(buf)
	b.SetBytes(int64(len(buf)))
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum ^= crc.ChecksumISN(uint16(i)&crc.SeqMask, buf)
	}
	sinkU64 = sum
}

// BenchmarkCRCPlainEncode is the baseline for BenchmarkCRCISNEncode.
func BenchmarkCRCPlainEncode(b *testing.B) {
	buf := make([]byte, 242)
	phy.NewRNG(1).Fill(buf)
	b.SetBytes(int64(len(buf)))
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum ^= crc.Checksum(buf)
	}
	sinkU64 = sum
}

var sinkU64 uint64

// --- E16: hardware cost (Section 7.3) -------------------------------------

// BenchmarkHWCostModel derives the full gate-level CRC encoder model from
// the polynomial and reports the Section 7.3 numbers (10 extra XORs).
func BenchmarkHWCostModel(b *testing.B) {
	var r hwcost.Report
	for i := 0; i < b.N; i++ {
		r = hwcost.NewReport(242, 10)
	}
	b.ReportMetric(float64(r.ISNExtraXORs), "extra_xors")
	b.ReportMetric(float64(r.NetGatesPerEndpoint), "net_gates")
}

// --- E17: flit encode pipeline (Fig. 3) ------------------------------------

// BenchmarkFlitSealRXL measures the full Fig. 3 encode pipeline (ISN CRC +
// 3-way interleaved FEC) per 256B flit.
func BenchmarkFlitSealRXL(b *testing.B) {
	fec := flit.NewFEC()
	var f flit.Flit
	phy.NewRNG(9).Fill(f.Payload())
	b.SetBytes(flit.Size)
	for i := 0; i < b.N; i++ {
		f.SealRXL(uint16(i)&crc.SeqMask, fec)
	}
}

// BenchmarkFlitDecodeRXL measures the receive pipeline: FEC decode plus
// ISN CRC validation of a clean flit.
func BenchmarkFlitDecodeRXL(b *testing.B) {
	fec := flit.NewFEC()
	var f flit.Flit
	phy.NewRNG(9).Fill(f.Payload())
	f.SealRXL(7, fec)
	b.SetBytes(flit.Size)
	ok := false
	for i := 0; i < b.N; i++ {
		g := f
		g.DecodeFEC(fec)
		ok = g.CheckCRCISN(7)
	}
	if !ok {
		b.Fatal("decode failed")
	}
}

// --- E18: parallel sharded runner (DESIGN.md architecture section) --------

// BenchmarkParallelSweep runs a fixed Monte-Carlo workload (the E14 FEC
// burst stage) sequentially and then sharded across an 8-worker pool, and
// reports the wall-clock speedup as a custom metric. The merged aggregates
// are asserted bit-identical — the runner buys wall clock, never changes
// statistics. The speedup tracks min(8, GOMAXPROCS): ≈1× on one core,
// ≥3× on 8.
func BenchmarkParallelSweep(b *testing.B) {
	const burst, trials, shards, workers = 4, 20000, 64, 8
	ctx := context.Background()

	var seqT, parT time.Duration
	for i := 0; i < b.N; i++ {
		// Sequential reference: the same shard set on one goroutine, so
		// both sides do identical work and the ratio is pure scheduling.
		start := time.Now()
		seq, err := reliability.MeasureFECBurstSharded(ctx, rxl.Runner{Workers: 1, BaseSeed: 1}, burst, trials, shards)
		if err != nil {
			b.Fatal(err)
		}
		seqT += time.Since(start)

		start = time.Now()
		par, err := reliability.MeasureFECBurstSharded(ctx, rxl.Runner{Workers: workers, BaseSeed: 1}, burst, trials, shards)
		if err != nil {
			b.Fatal(err)
		}
		parT += time.Since(start)

		if seq != par {
			b.Fatalf("parallel aggregates diverge from sequential:\nseq %+v\npar %+v", seq, par)
		}
	}
	b.ReportMetric(seqT.Seconds()/parT.Seconds(), "speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// --- Floors: the speed ratios that hold on any host ------------------------

// floor is one within-run speed ratio: the slow leg's ns/op over the fast
// leg's must stay at or above min. Both legs run in one process seconds
// apart, so the host's absolute speed cancels.
type floor struct {
	name       string // DESIGN.md §2 lists every floor under this name
	slow, fast leg
	min        float64
	applies    func() bool // nil = always
}

type leg struct {
	name string
	run  func(b *testing.B)
}

// floors is the whole gate. Noise policy: a floor fails only when its
// ratio is under min on each of floorAttempts consecutive measurements,
// and a measurement counts only when both legs ran for floorMinLeg (the
// default -benchtime gives >= 1 s; the unit rung's -benchtime 1x smoke
// runs every leg once and asserts nothing). The express floor is an
// exact event count instead: core.TestExpressCollapsesEvents.
var floors = []floor{
	{name: "chain-fastpath", min: 3,
		slow: leg{"bytelevel", chainTransfer(true)}, fast: leg{"fastpath", chainTransfer(false)}},
	{name: "mesh-fastpath", min: 3,
		slow: leg{"bytelevel", meshTransfer(true)}, fast: leg{"fastpath", meshTransfer(false)}},
	{name: "mc-epoch-skip", min: 5,
		slow: leg{"epoch-ber1e6", mcEpochSkip(1e-6)}, fast: leg{"epoch-ber1e9", mcEpochSkip(1e-9)}},
	{name: "crc-slicing", min: 8,
		slow: leg{"bitwise", crcEngine(crc.UpdateBitwise)}, fast: leg{"by16", crcEngine(crc.UpdateSlicing16)}},
	{name: "crc-clmul", min: 4, applies: crc.UsingCLMUL,
		slow: leg{"by16", crcEngine(crc.UpdateSlicing16)}, fast: leg{"clmul", crcEngine(crc.Update)}},
	{name: "rs-syndrome", min: 3,
		slow: leg{"bytelevel", rsVerify((*rs.Interleaved).VerifyReference)}, fast: leg{"vectored", rsVerify((*rs.Interleaved).Verify)}},
}

const (
	floorAttempts = 3
	floorMinLeg   = 500 * time.Millisecond
)

// BenchmarkFloors measures every floor and fails the ones that do not
// hold; it is the whole bench rung. The legs are sub-benchmarks
// (testing.Benchmark deadlocks inside a running benchmark) that hand
// their ns/op back; the fast leg's result line carries the ratio.
func BenchmarkFloors(b *testing.B) {
	for _, f := range floors {
		b.Run(f.name, func(b *testing.B) {
			if f.applies != nil && !f.applies() {
				b.Skip("does not apply on this host/build")
			}
			var ratios []float64
			for len(ratios) < floorAttempts {
				slowNs, slowRan := runLeg(b, f.slow, 0)
				fastNs, fastRan := runLeg(b, f.fast, slowNs)
				if slowRan < floorMinLeg || fastRan < floorMinLeg {
					return // smoke run, or a leg filtered out: nothing measured
				}
				ratios = append(ratios, slowNs/fastNs)
				if ratios[len(ratios)-1] >= f.min {
					return
				}
			}
			b.Fatalf("%s/%s ratio %.2f under the floor %g on each of %d attempts",
				f.slow.name, f.fast.name, ratios, f.min, floorAttempts)
		})
	}
}

// runLeg runs one leg as a sub-benchmark and returns its ns/op and how
// long its final round ran. With against > 0 (the slow leg's ns/op) the
// leg's result line also reports against/ns as "ratio".
func runLeg(b *testing.B, l leg, against float64) (nsPerOp float64, ran time.Duration) {
	b.Run(l.name, func(b *testing.B) {
		l.run(b)
		ran = b.Elapsed()
		nsPerOp = float64(ran.Nanoseconds()) / float64(b.N)
		if against > 0 {
			b.ReportMetric(against/nsPerOp, "ratio")
		}
	})
	return nsPerOp, ran
}

// lineRate pushes b.N 64-byte payloads from tx to rx, draining the
// engine whenever 256 are queued, and requires every one delivered.
func lineRate(b *testing.B, tx, rx *link.Peer, run func()) {
	b.ReportAllocs()
	delivered := 0
	rx.Deliver = func([]byte) { delivered++ }
	payload := make([]byte, 64)
	b.SetBytes(flit.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Submit(payload)
		if tx.Queued() > 256 {
			run()
		}
	}
	run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// chainTransfer drives line-rate traffic through a two-level switched
// fabric at the paper's operating point (BER 1e-6), on the error-event
// fast path or the byte-level reference (bit-identical per the
// differential tests): schedule skips, deferred seals and pooling
// against a corruption scan, CRC and FEC decode/re-encode per hop.
func chainTransfer(noFast bool) func(*testing.B) {
	return func(b *testing.B) {
		fabric := rxl.MustNewFabric(rxl.Config{
			Protocol: rxl.RXL, Levels: 2, BER: 1e-6, BurstProb: 0.4,
			Seed: 11, NoFastPath: noFast,
		})
		lineRate(b, fabric.A(), fabric.B(), fabric.Run)
	}
}

// meshTransfer is chainTransfer across the full diagonal of a 4x4 mesh
// (7 wire crossings), both legs on the per-hop event fabric (NoExpress)
// so the ratio isolates the mesh-wide fast path: one schedule
// consultation per traversal against every router decoding, checking
// and re-encoding. The legs twin bench/'s switchfab.perhop_flit_ns and
// bytelevel_flit_ns probes; they stay until the floor table can move
// into bench/ as within-run probe ratios (ROADMAP item 2(a)).
func meshTransfer(noFast bool) func(*testing.B) {
	return func(b *testing.B) {
		noc, err := rxl.NewNoC(4, 4, rxl.Config{
			Protocol: rxl.RXL, BER: 1e-6, BurstProb: 0.4,
			Seed: 11, NoExpress: true, NoFastPath: noFast,
		})
		if err != nil {
			b.Fatal(err)
		}
		src, dst := noc.Node(0, 0), noc.Node(3, 3)
		lineRate(b, src.PeerTo(dst.ID), dst.PeerTo(src.ID), noc.Run)
	}
}

// mcEpochSkip runs the MC path-FER loop (7 hops, 300k flits per op) at
// one BER. Clean traversals are consumed in O(1) spans and the clean
// crossings inside a struck one are jumped, so cost tracks error events,
// not flits: the legs hold the flit count constant while the BER drops.
func mcEpochSkip(ber float64) func(*testing.B) {
	return func(b *testing.B) {
		const hops, flits = 7, 300_000
		for i := 0; i < b.N; i++ {
			reliability.MeasureFERPathSchedule(ber, hops, flits, 1)
		}
		b.ReportMetric(float64(flits)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflits_per_s")
	}
}

// crcEngine runs one CRC-64 engine over a full 242-byte flit input
// (header + payload). bit-serial → by16 is what the tables buy (by16 is
// the purego hot path), by16 → crc.Update is what PCLMULQDQ folding adds.
func crcEngine(update func(uint64, []byte) uint64) func(*testing.B) {
	return func(b *testing.B) {
		buf := make([]byte, 242)
		phy.NewRNG(1).Fill(buf)
		b.SetBytes(int64(len(buf)))
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum ^= update(0, buf)
		}
		sinkU64 = sum
	}
}

// rsVerify runs one RS clean check over the flit FEC's 250-byte image and
// its 6 parity bytes: the stride-3 table kernel Interleaved.Verify, or the
// per-way byte loop.
func rsVerify(verify func(*rs.Interleaved, []byte, []byte) bool) func(*testing.B) {
	return func(b *testing.B) {
		fec := flit.NewFEC()
		data := make([]byte, fec.DataLen())
		parity := make([]byte, fec.ParityLen())
		phy.NewRNG(3).Fill(data)
		fec.Encode(data, parity)
		b.SetBytes(int64(len(data) + len(parity)))
		ok := false
		for i := 0; i < b.N; i++ {
			ok = verify(fec, data, parity)
		}
		if !ok {
			b.Fatal("benchmark codeword failed verify")
		}
	}
}
