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
//
// Throughput benches at the bottom measure the live simulator itself.
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
// flit inputs; the metric confirms zero detectable overhead versus the
// plain CRC path (see BenchmarkCRCPlainEncode).
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

// BenchmarkCRCSlicing is the table-kernel ablation over a full 242-byte
// flit input (header + payload, the dirty-flit materialization unit):
// slicing-by-16 (the widest portable table engine and the purego hot
// path), slicing-by-8, single-table, and the bit-serial reference. The
// dispatched hot path (CLMUL where available) is BenchmarkCRCCLMUL. CI
// gates the by16 leg absolutely and the table/by16 ratio
// machine-invariantly.
func BenchmarkCRCSlicing(b *testing.B) {
	buf := make([]byte, 242)
	phy.NewRNG(1).Fill(buf)
	for _, eng := range []struct {
		name string
		fn   func(uint64, []byte) uint64
	}{
		{"by16", crc.UpdateSlicing16},
		{"by8", crc.UpdateSlicing8},
		{"table", crc.UpdateTable},
		{"bitwise", crc.UpdateBitwise},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum ^= eng.fn(0, buf)
			}
			sinkU64 = sum
		})
	}
}

// BenchmarkCRCCLMUL measures the dispatched crc.Update hot path over the
// same 242-byte flit input as BenchmarkCRCSlicing — the PCLMULQDQ folding
// kernel on amd64. CI gates the clmul/by16 speedup ratio (≥4×)
// machine-invariantly when the host has the instruction.
func BenchmarkCRCCLMUL(b *testing.B) {
	if !crc.UsingCLMUL() {
		b.Skip("no CLMUL on this host/build")
	}
	buf := make([]byte, 242)
	phy.NewRNG(1).Fill(buf)
	b.Run("clmul", func(b *testing.B) {
		b.SetBytes(int64(len(buf)))
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum ^= crc.Update(0, buf)
		}
		sinkU64 = sum
	})
}

// BenchmarkRSSyndromeVectored compares the word-parallel RS syndrome
// front-end (rs.Code.Verify, the skip-path engine behind every FEC check)
// against the byte-level reference loop over one CXL sub-block
// (86-symbol codeword, 2 parity). CI gates the bytelevel/vectored ratio
// (≥3×) machine-invariantly.
func BenchmarkRSSyndromeVectored(b *testing.B) {
	c := rs.MustNew(84, 2)
	data := make([]byte, 84)
	parity := make([]byte, 2)
	phy.NewRNG(3).Fill(data)
	c.Encode(data, parity)
	ok := false
	b.Run("vectored", func(b *testing.B) {
		b.SetBytes(int64(len(data) + len(parity)))
		for i := 0; i < b.N; i++ {
			ok = c.Verify(data, parity)
		}
	})
	b.Run("bytelevel", func(b *testing.B) {
		b.SetBytes(int64(len(data) + len(parity)))
		for i := 0; i < b.N; i++ {
			ok = c.VerifyReference(data, parity)
		}
	})
	if !ok {
		b.Fatal("benchmark codeword failed verify")
	}
}

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

// --- Live simulator throughput ---------------------------------------------

func benchSim(b *testing.B, proto rxl.Protocol, levels int, ber float64) {
	b.ReportAllocs()
	fabric := rxl.MustNewFabric(rxl.Config{Protocol: proto, Levels: levels, BER: ber, BurstProb: 0.4, Seed: 11})
	delivered := 0
	fabric.B().Deliver = func([]byte) { delivered++ }
	payload := make([]byte, 64)
	b.SetBytes(flit.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fabric.A().Submit(payload)
		if fabric.A().Queued() > 256 {
			fabric.Run()
		}
	}
	fabric.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkSimRXLDirect: simulator throughput, RXL direct connection.
func BenchmarkSimRXLDirect(b *testing.B) { benchSim(b, rxl.RXL, 0, 0) }

// BenchmarkSimRXLSwitched2: RXL across two switching levels.
func BenchmarkSimRXLSwitched2(b *testing.B) { benchSim(b, rxl.RXL, 2, 0) }

// BenchmarkSimRXLSwitched2BER: two levels with live error injection.
func BenchmarkSimRXLSwitched2BER(b *testing.B) { benchSim(b, rxl.RXL, 2, 1e-6) }

// BenchmarkSimCXLSwitched2: baseline CXL across two levels (same workload
// as BenchmarkSimRXLSwitched2 for a cost comparison).
func BenchmarkSimCXLSwitched2(b *testing.B) { benchSim(b, rxl.CXL, 2, 0) }

// --- PR 2: error-event fast path ------------------------------------------

// benchFlitTransfer drives line-rate traffic through a two-level switched
// fabric at the paper's operating point (BER 1e-6) with the error-event
// fast path on or off. Differential tests guarantee both paths produce
// bit-identical results; this benchmark measures what the fast path buys —
// ns/flit and allocs/flit (near-zero on the fast path thanks to schedule
// skips, deferred seals, and flit/entry pooling).
func benchFlitTransfer(b *testing.B, fast bool) {
	b.ReportAllocs()
	fabric := rxl.MustNewFabric(rxl.Config{
		Protocol: rxl.RXL, Levels: 2, BER: 1e-6, BurstProb: 0.4,
		Seed: 11, NoFastPath: !fast,
	})
	delivered := 0
	fabric.B().Deliver = func([]byte) { delivered++ }
	payload := make([]byte, 64)
	b.SetBytes(flit.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fabric.A().Submit(payload)
		if fabric.A().Queued() > 256 {
			fabric.Run()
		}
	}
	fabric.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkFlitTransfer compares the full simulator inner loop with the
// error-event fast path against the byte-level reference path.
func BenchmarkFlitTransfer(b *testing.B) {
	b.Run("fastpath", func(b *testing.B) { benchFlitTransfer(b, true) })
	b.Run("bytelevel", func(b *testing.B) { benchFlitTransfer(b, false) })
}

// --- PR 5: mesh-wide fast path + engine bulk advance ----------------------

// benchMeshTransfer drives line-rate traffic across the full diagonal of
// a 4x4 mesh (7 routers, 7 wire crossings) at the paper's operating point
// (BER 1e-6) with the mesh-wide error-event fast path and the express
// traversal path toggled independently. The mesh differential suite
// guarantees every mode produces bit-identical results; the fast path
// buys one schedule consultation per traversal instead of per-hop channel
// work (clean flits forwarded by reference), express collapses granted
// traversals into up-front wire claims plus a single delivery event.
func benchMeshTransfer(b *testing.B, noExpress, noFast bool) *rxl.NoC {
	b.ReportAllocs()
	noc, err := rxl.NewNoC(4, 4, rxl.Config{
		Protocol: rxl.RXL, BER: 1e-6, BurstProb: 0.4,
		Seed: 11, NoExpress: noExpress, NoFastPath: noFast,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := noc.Node(0, 0)
	dst := noc.Node(3, 3)
	tx := src.PeerTo(dst.ID)
	delivered := 0
	dst.PeerTo(src.ID).Deliver = func([]byte) { delivered++ }
	payload := make([]byte, 64)
	b.SetBytes(flit.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Submit(payload)
		if tx.Queued() > 256 {
			noc.Run()
		}
	}
	noc.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
	return noc
}

// BenchmarkMeshTransferFastPath compares the multi-hop NoC inner loop
// with the mesh-wide fast path against the byte-level reference (every
// router decoding, checking, and re-encoding every flit), both on the
// per-hop event fabric (NoExpress — the PR 5 model this benchmark has
// always measured; the express win is gated separately by
// BenchmarkMeshExpressTraversal). CI gates the within-run
// bytelevel/fastpath ratio at ≥5×.
func BenchmarkMeshTransferFastPath(b *testing.B) {
	b.Run("fastpath", func(b *testing.B) { benchMeshTransfer(b, true, false) })
	b.Run("bytelevel", func(b *testing.B) { benchMeshTransfer(b, true, true) })
}

// --- PR 7: express traversal + clean-epoch skipping -----------------------

// BenchmarkMeshExpressTraversal measures what express traversal buys on
// the same diagonal workload: "express" claims every route wire at
// injection and schedules one delivery event per granted traversal
// (struck traversals walk their pre-claimed route with per-hop events),
// "fastpath" is the PR 5 per-hop event fabric. Both ride the error-event
// fast path; the express differential suite pins them bit-identical
// per mode against the byte-level reference. CI gates the within-run
// fastpath/express ratio — machine-invariant, it measures the event
// collapse itself. The express leg also reports the fraction of
// traversals that went express at this operating point.
func BenchmarkMeshExpressTraversal(b *testing.B) {
	b.Run("express", func(b *testing.B) {
		noc := benchMeshTransfer(b, false, false)
		ex := noc.Mesh.ExpressTraversals
		fb := noc.Mesh.ExpressFallbacks
		if ex == 0 {
			b.Fatal("no traversal went express")
		}
		b.ReportMetric(float64(ex)/float64(ex+fb), "express_share")
	})
	b.Run("fastpath", func(b *testing.B) { benchMeshTransfer(b, true, false) })
}

// BenchmarkMCEpochSkip measures clean-epoch skipping in the MC path-FER
// loop (7-hop diagonal, 300k flits per op): whole clean traversals are
// consumed in O(1) GrantSpans and the clean crossings inside each struck
// traversal are jumped, so per-traversal cost is proportional to error
// events rather than hops. The legs hold the flit count constant while
// the BER drops, so their ns/op ratio is a per-flit cost ratio: CI gates
// epoch@1e-6 / epoch@1e-9 ≥ 5 — the BER-proportional effect the deep-tail
// estimators ride.
func BenchmarkMCEpochSkip(b *testing.B) {
	const hops, flits = 7, 300_000
	legs := []struct {
		name string
		ber  float64
	}{
		{"epoch-ber1e6", 1e-6},
		{"epoch-ber1e9", 1e-9},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reliability.MeasureFERPathSchedule(leg.ber, hops, flits, 1)
			}
			b.ReportMetric(float64(flits)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflits_per_s")
		})
	}
}

// BenchmarkEngineBulkAdvance measures the event-dispatch cost of the
// engine's bulk-advance pump on its dominant workload — a long monotone
// stream of payload events (pipe deliveries) — and on a mixed stream
// where a recurring out-of-order timer forces lane merging. The monotone
// leg is the per-event floor under every simulator benchmark above.
func BenchmarkEngineBulkAdvance(b *testing.B) {
	bench := func(b *testing.B, outOfOrderEvery int) {
		b.ReportAllocs()
		eng := rxl.NewEngine()
		n := 0
		noop := func() {}
		var pump func(interface{})
		pump = func(interface{}) {
			n++
			eng.ScheduleArg(2*rxl.Nanosecond, pump, nil)
			if outOfOrderEvery > 0 && n%outOfOrderEvery == 0 {
				// Deepen the sorted lane past the bounded insertion
				// window, then push beneath it — genuine heap traffic
				// (sim.TestPushBeyondInsertWindowGoesToHeap pins that
				// this pattern reaches the heap lane).
				for j := rxl.Time(0); j < 12; j++ {
					eng.Schedule((4+2*j)*rxl.Nanosecond, noop)
				}
				eng.At(eng.Now()+rxl.Nanosecond, noop)
			}
		}
		eng.ScheduleArg(0, pump, nil)
		b.ResetTimer()
		eng.AdvanceTo(2 * rxl.Nanosecond * rxl.Time(b.N))
		b.StopTimer()
		if n < b.N {
			b.Fatalf("dispatched %d of %d", n, b.N)
		}
	}
	b.Run("monotone", func(b *testing.B) { bench(b, 0) })
	b.Run("mixed", func(b *testing.B) { bench(b, 64) })
}

// BenchmarkMCPathInnerLoop measures the multi-hop Monte-Carlo FER loop
// (7-hop path, the 4x4 mesh diagonal) on the shared path schedule against
// the per-hop byte-level reference, asserts bit-identical samples, and
// reports the schedule's speedup plus its throughput relative to the
// single-link schedule loop (BenchmarkMCInnerLoopFastPath) — the
// tentpole claim is that a multi-hop traversal costs within a small
// factor of a single-link flit.
func BenchmarkMCPathInnerLoop(b *testing.B) {
	const ber, hops, flits = 1e-6, 7, 300_000
	var slowT, fastT, linkT time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		ref := reliability.MeasureFERPath(ber, hops, flits, 1)
		slowT += time.Since(start)

		start = time.Now()
		sched := reliability.MeasureFERPathSchedule(ber, hops, flits, 1)
		fastT += time.Since(start)

		start = time.Now()
		reliability.MeasureFERSchedule(ber, flits, 1)
		linkT += time.Since(start)

		if ref != sched {
			b.Fatalf("path schedule sample diverges from byte-level:\nbyte %+v\nsched %+v", ref, sched)
		}
	}
	b.ReportMetric(slowT.Seconds()/fastT.Seconds(), "speedup_vs_bytelevel")
	// Per hop crossing: a 7-hop traversal is 7 single-link units of
	// channel work, so this is the apples-to-apples cost of the shared
	// schedule versus the single-link loop (tentpole bar: ~2-5×).
	b.ReportMetric(fastT.Seconds()/(float64(hops)*linkT.Seconds()), "hop_cost_vs_single_link")
	b.ReportMetric(float64(flits)*float64(b.N)/fastT.Seconds()/1e6, "Mflits_per_s")
}

// seedFERLoop reproduces the pre-PR-2 Monte-Carlo FER inner loop exactly:
// per flit, zero a 256B image, draw a fresh geometric gap (truncated at
// the flit boundary — the statistical bug the residual-gap fix removed),
// and scan/corrupt byte-level. It is the "before" against which the
// error-event schedule's speedup is measured; it is kept here, not in
// internal/phy, because nothing but this benchmark should ever run it.
func seedFERLoop(ber float64, flits int, seed uint64) int {
	rng := phy.NewRNG(seed)
	buf := make([]byte, flit.Size)
	bits := flit.Bits
	bad := 0
	for i := 0; i < flits; i++ {
		for j := range buf {
			buf[j] = 0
		}
		flipped := 0
		pos := rng.Geometric(ber)
		for pos < bits {
			buf[pos/8] ^= 1 << (7 - pos%8)
			flipped++
			gap := rng.Geometric(ber)
			if gap >= bits {
				break
			}
			pos += 1 + gap
		}
		if flipped > 0 {
			bad++
		}
	}
	return bad
}

// BenchmarkMCInnerLoopFastPath measures the Monte-Carlo FER inner loop at
// the production operating point (BER 1e-6, where <1 in ~500 flits sees an
// error) three ways — the seed's per-flit loop, this PR's byte-level path
// (already schedule-backed, so clean flits skip the corruption scan), and
// the image-free error-event schedule — asserts byte-level and schedule
// samples are bit-identical, and reports throughput ratios as custom
// metrics. `speedup` is schedule vs the seed loop (acceptance bar: ≥ 10×).
func BenchmarkMCInnerLoopFastPath(b *testing.B) {
	const ber, flits = 1e-6, 300_000
	var seedT, slowT, fastT time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		seedFERLoop(ber, flits, 1)
		seedT += time.Since(start)

		start = time.Now()
		ref := reliability.MeasureFER(ber, flits, 1)
		slowT += time.Since(start)

		start = time.Now()
		sched := reliability.MeasureFERSchedule(ber, flits, 1)
		fastT += time.Since(start)

		if ref != sched {
			b.Fatalf("schedule sample diverges from byte-level:\nbyte %+v\nsched %+v", ref, sched)
		}
	}
	b.ReportMetric(seedT.Seconds()/fastT.Seconds(), "speedup")
	b.ReportMetric(slowT.Seconds()/fastT.Seconds(), "speedup_vs_bytelevel")
	b.ReportMetric(float64(flits)*float64(b.N)/fastT.Seconds()/1e6, "Mflits_per_s")
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
