package core

import (
	"testing"
	"testing/quick"

	"repro/internal/flit"
)

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(kind, cqid uint8, id uint32, addr uint64, tag, val uint16) bool {
		m := txMsg{kind: txKind(kind), cqid: cqid, id: id, addr: addr, tag: tag, val: val}
		buf := make([]byte, txMsgSize)
		m.encode(buf)
		return decodeTxMsg(buf) == m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMessageFitsBeforeRoutingBytes: the message at the front of a flit
// payload must leave the fabric's two routing-tag bytes at its end free.
func TestMessageFitsBeforeRoutingBytes(t *testing.T) {
	if txMsgSize > flit.SrcRouteOffset {
		t.Fatalf("message region %d overlaps routing bytes at %d", txMsgSize, flit.SrcRouteOffset)
	}
}

func TestSyntheticValueDeterministicAndSpread(t *testing.T) {
	if syntheticValue(42) != syntheticValue(42) {
		t.Fatal("not deterministic")
	}
	seen := map[uint16]bool{}
	for a := uint64(0); a < 1000; a++ {
		seen[syntheticValue(a)] = true
	}
	if len(seen) < 950 {
		t.Fatalf("poor spread: %d distinct of 1000", len(seen))
	}
}

// loopback wires a host and device directly (no link layer).
func loopback() (*txHost, *txDevice, *Fig5Report) {
	rep := &Fig5Report{}
	var h *txHost
	var d *txDevice
	h = newTxHost(rep, func(m txMsg) { d.onMessage(m) })
	d = newTxDevice(rep, func(m txMsg) { h.onMessage(m) })
	return h, d, rep
}

func TestHostDeviceHappyPath(t *testing.T) {
	_, d, rep := loopback()
	for i := 0; i < 100; i++ {
		d.issueRead(uint64(i)*64, uint8(i%4))
	}
	if rep.Completed != 100 || len(d.outstanding) != 0 {
		t.Fatalf("completed %d, outstanding %d", rep.Completed, len(d.outstanding))
	}
	if !rep.CleanTransactions() {
		t.Fatalf("clean run reported failures: %+v", *rep)
	}
}

func TestDuplicateRequestDetectedAtHost(t *testing.T) {
	h, d, rep := loopback()
	d.issueRead(0x1000, 0)
	// Replay of the same request flit (Fig. 5a): same ID arrives again.
	h.onMessage(txMsg{kind: txReq, cqid: 0, id: 0, addr: 0x1000})
	if rep.DuplicateExecutions != 1 {
		t.Fatalf("DuplicateExecutions = %d, want 1", rep.DuplicateExecutions)
	}
	// The redundant data lands on the device as duplicate data.
	if rep.DuplicateData != 1 {
		t.Fatalf("DuplicateData = %d, want 1", rep.DuplicateData)
	}
}

func TestOutOfOrderDataDetected(t *testing.T) {
	rep := &Fig5Report{}
	d := newTxDevice(rep, func(txMsg) {})
	// Two reads on the same CQID, data delivered out of order (Fig. 5b).
	id1 := d.issueRead(0x100, 7)
	id2 := d.issueRead(0x200, 7)
	d.onMessage(txMsg{kind: txData, cqid: 7, id: id2, addr: 0x200, tag: 1, val: syntheticValue(0x200)})
	d.onMessage(txMsg{kind: txData, cqid: 7, id: id1, addr: 0x100, tag: 0, val: syntheticValue(0x100)})
	if rep.OutOfOrderData == 0 {
		t.Fatal("out-of-order data not detected")
	}
	if rep.Completed != 2 {
		t.Fatalf("completed %d", rep.Completed)
	}
}

func TestDistinctCQIDsMayInterleave(t *testing.T) {
	rep := &Fig5Report{}
	d := newTxDevice(rep, func(txMsg) {})
	idA := d.issueRead(0x100, 1)
	idB := d.issueRead(0x200, 2)
	// Different CQIDs arriving in reverse issue order is legal.
	d.onMessage(txMsg{kind: txData, cqid: 2, id: idB, addr: 0x200, tag: 0, val: syntheticValue(0x200)})
	d.onMessage(txMsg{kind: txData, cqid: 1, id: idA, addr: 0x100, tag: 0, val: syntheticValue(0x100)})
	if rep.OutOfOrderData != 0 {
		t.Fatal("cross-CQID interleave flagged as failure")
	}
}

func TestCorruptDataDetected(t *testing.T) {
	rep := &Fig5Report{}
	d := newTxDevice(rep, func(txMsg) {})
	id := d.issueRead(0x100, 0)
	d.onMessage(txMsg{kind: txData, cqid: 0, id: id, addr: 0x100, tag: 0, val: syntheticValue(0x100) ^ 1})
	if rep.CorruptData != 1 {
		t.Fatalf("CorruptData = %d, want 1", rep.CorruptData)
	}
}

func TestHostIgnoresNonRequests(t *testing.T) {
	h := newTxHost(&Fig5Report{}, func(txMsg) { t.Fatal("host responded to non-request") })
	h.onMessage(txMsg{kind: txData, id: 1})
	h.onMessage(txMsg{kind: 0, id: 2})
	if len(h.executed) != 0 {
		t.Fatal("executed a non-request")
	}
}

func TestDeviceIgnoresNonData(t *testing.T) {
	rep := &Fig5Report{}
	d := newTxDevice(rep, func(txMsg) {})
	d.issueRead(0x1, 0)
	d.onMessage(txMsg{kind: txReq, id: 0})
	if rep.Completed != 0 {
		t.Fatal("completed on a non-data message")
	}
}
