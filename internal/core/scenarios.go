package core

import (
	"encoding/binary"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/sim"
)

// This file reproduces the paper's deterministic failure scenarios:
//
//	Fig. 4  — a silent switch drop followed by an AckNum-carrying flit
//	          yields out-of-order delivery at the link layer under CXL.
//	Fig. 5a — the same drop under request-carrying flits causes duplicate
//	          request execution at the transaction layer.
//	Fig. 5b — under data-carrying flits sharing a CQID it causes
//	          out-of-order data delivery.
//
// Each scenario runs unchanged under any protocol variant, so the same
// script demonstrates the CXL failure and the RXL recovery.

// Fig4Report captures the link-layer outcome of the Fig. 4 script.
type Fig4Report struct {
	// Tags is the delivery order observed at the endpoint.
	Tags []uint64
	// Misordered reports whether tag 2 was delivered before tag 1 — the
	// paper's failure signature.
	Misordered bool
	// UnverifiedDelivered counts flits forwarded without a sequence check
	// (CXL's piggyback blind spot).
	UnverifiedDelivered uint64
	// CrcErrors counts endpoint CRC/ISN rejections (RXL's detection).
	CrcErrors uint64
	// SwitchDrops counts flits silently discarded by the switch.
	SwitchDrops uint64
	// Duplicates counts tags delivered more than once.
	Duplicates int
}

// dropSecondData is the scripts' fault: a switch FaultHook that silently
// drops the second TypeData flit to cross its wire — the switch-side
// discard of an uncorrectable flit.
func dropSecondData() func(*flit.Flit) bool {
	seen := 0
	return func(fl *flit.Flit) bool {
		if fl.Header().Type != flit.TypeData {
			return false
		}
		seen++
		return seen == 2
	}
}

// RunFig4 executes the Fig. 4 drop script on a one-switch chain under the
// given protocol and reports what the endpoint observed.
func RunFig4(proto link.Protocol) Fig4Report {
	// Aggressive acking maximizes piggybacking, as in the figure.
	cfg := link.DefaultConfig(proto)
	cfg.CoalesceCount = 1
	f := MustNewFabric(Config{Protocol: proto, Levels: 1, LinkConfig: &cfg})

	var rep Fig4Report
	seenAt := map[uint64]int{}
	f.B().Deliver = func(p []byte) {
		tag := binary.BigEndian.Uint64(p)
		if _, dup := seenAt[tag]; dup {
			rep.Duplicates++
		} else {
			seenAt[tag] = len(rep.Tags)
		}
		rep.Tags = append(rep.Tags, tag)
	}

	// Silently drop the second data flit on the first forward hop.
	f.Chain.Fwd[0].FaultHook = dropSecondData()

	// Reverse payload gives A an acknowledgment to piggyback; the
	// staggered downstream submissions reproduce the figure's timing:
	// flit #2 transmits after the ACK for the upstream flit is pending
	// (so its FSN carries the AckNum), while flit #3 follows immediately
	// (no fresh ACK) and carries its explicit sequence number.
	f.B().Submit(SealedPayload(100))
	f.A().Submit(SealedPayload(0))
	f.A().Submit(SealedPayload(1)) // dropped by the switch
	f.Eng.Schedule(60*sim.Nanosecond, func() { f.A().Submit(SealedPayload(2)) })
	f.Eng.Schedule(64*sim.Nanosecond, func() { f.A().Submit(SealedPayload(3)) })
	f.Run()

	if p2, ok := seenAt[2]; ok {
		if p1, ok1 := seenAt[1]; ok1 && p2 < p1 {
			rep.Misordered = true
		}
	}
	rep.UnverifiedDelivered = f.B().Stats.UnverifiedDelivered
	rep.CrcErrors = f.B().Stats.CrcErrors
	rep.SwitchDrops = f.Chain.TotalSwitchStats().DroppedUncorrectable + f.Chain.Fwd[0].HookDropped
	return rep
}

// Fig5Report captures the transaction-layer outcome of the Fig. 5 scripts.
type Fig5Report struct {
	// Issued and Completed are the device's transaction counts.
	Issued, Completed uint64
	// DuplicateExecutions is the host-side Fig. 5a signature: a request
	// executed more than once.
	DuplicateExecutions uint64
	// DuplicateData is the device-side Fig. 5a signature: data delivered
	// for an already-completed transaction.
	DuplicateData uint64
	// OutOfOrderData is the Fig. 5b signature: intra-CQID sequence
	// violation observed by the device.
	OutOfOrderData uint64
	// CorruptData counts end-to-end payload corruption (Fail_data).
	CorruptData uint64
	// LinkCrcErrors counts endpoint CRC/ISN rejections (the RXL detection
	// path).
	LinkCrcErrors uint64
	// SwitchDrops counts silently discarded flits.
	SwitchDrops uint64
}

// CleanTransactions reports whether the transaction layer saw no failure
// signature.
func (r Fig5Report) CleanTransactions() bool {
	return r.DuplicateExecutions == 0 && r.DuplicateData == 0 &&
		r.OutOfOrderData == 0 && r.CorruptData == 0
}

// RunFig5a executes the duplicate-request scenario: a request-carrying
// flit is silently dropped on the way to the host while the following flit
// carries a piggybacked AckNum. Under CXL the host executes the later
// request early and the replay re-executes it (Fig. 5a); under RXL the
// drop is detected and the stream replays exactly once.
func RunFig5a(proto link.Protocol) Fig5Report {
	// The device acks every response (piggybacking AckNums on its request
	// flits — the attacked stream); the host coalesces, so its responses
	// carry explicit FSNs and the device's deliveries stay verified.
	f, dev, rep := fig5Fabric(proto, 1, 10)

	// Drop the second request-carrying flit A→B at the first hop.
	f.Chain.Fwd[0].FaultHook = dropSecondData()

	// Figure 5a timing. One direction takes ≈29 ns (2+10+5+2+10), so a
	// response reaches the device ≈58 ns after its request:
	//
	//	req0 @0    — carries its FSN; host answers, resp0 reaches the
	//	             device at ≈58 ns and arms an acknowledgment.
	//	req1 @10   — carries its FSN (no ACK pending yet); DROPPED at
	//	             the switch.
	//	req2 @70   — resp0 has arrived, so its FSN carries the AckNum:
	//	             the host forwards it unverified (blind spot) and
	//	             executes the read.
	//	req3 @80   — no new response since req2, so it carries its
	//	             explicit FSN: the host sees the gap and NAKs; the
	//	             go-back-N replay re-delivers req2 → re-execution.
	for i, at := range []sim.Time{0, 10, 70, 80, 200, 210} {
		addr := uint64(0x1000 + i*64)
		f.Eng.Schedule(at*sim.Nanosecond, func() { dev.issueRead(addr, 0) })
	}
	f.Run()

	rep.LinkCrcErrors = f.B().Stats.CrcErrors
	rep.SwitchDrops = f.Chain.TotalSwitchStats().DroppedUncorrectable + f.Chain.Fwd[0].HookDropped
	return *rep
}

// RunFig5b executes the out-of-order-data scenario: a data-carrying flit
// from the host is silently dropped while its successor (same CQID)
// carries an AckNum. Under CXL the device observes the later data first —
// an intra-CQID ordering violation (Fig. 5b); under RXL the ISN check
// halts the stream until the replay restores order.
func RunFig5b(proto link.Protocol) Fig5Report {
	// Mirror image of Fig. 5a: the host acks every request (piggybacking
	// AckNums on its data flits — the attacked stream); the device
	// coalesces, so its requests carry explicit FSNs and the host's
	// deliveries stay verified.
	f, dev, rep := fig5Fabric(proto, 10, 1)

	// Drop the second data-carrying flit B→A (host→device) at the first
	// backward hop.
	f.Chain.Bwd[0].FaultHook = dropSecondData()

	// All requests share CQID 7, so their data must arrive in order.
	// Every host response piggybacks the ACK of the request that
	// triggered it (CoalesceCount=1), so the data flit after the dropped
	// one is forwarded unverified and the device observes the intra-CQID
	// ordering violation directly.
	for i := 0; i < 6; i++ {
		addr := uint64(0x8000 + i*64)
		f.Eng.Schedule(sim.Time(i)*70*sim.Nanosecond, func() { dev.issueRead(addr, 7) })
	}
	f.Run()

	rep.LinkCrcErrors = f.A().Stats.CrcErrors
	rep.SwitchDrops = f.Chain.TotalSwitchStats().DroppedUncorrectable + f.Chain.Bwd[0].HookDropped
	return *rep
}
