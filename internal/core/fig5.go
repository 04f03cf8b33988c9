package core

import (
	"encoding/binary"

	"repro/internal/flit"
	"repro/internal/link"
)

// This file is the transaction layer of the Fig. 5 scripts (paper
// Section 4.2): a device issuing reads with Command Queue IDs (CQIDs), a
// host executing them, and the application-level detectors for the two
// failure signatures — duplicate request execution (Fig. 5a) and
// out-of-order data within a CQID (Fig. 5b). Each message rides one flit,
// which keeps the scripts deterministic: the script controls exactly which
// message a dropped flit carried.

// txKind is a transaction message type.
type txKind uint8

const (
	txReq  txKind = 1 // read request, device → host
	txData txKind = 3 // the requested data, host → device
)

// txMsgSize is the wire size of one message at the front of a flit
// payload, clear of the two routing-tag bytes at its end.
const txMsgSize = 18

// txMsg is one transaction-layer message.
type txMsg struct {
	kind txKind
	// cqid is the command queue: data for the same CQID must be delivered
	// in order; distinct CQIDs may complete out of order.
	cqid uint8
	id   uint32
	addr uint64
	// tag carries, on data, the per-CQID delivery sequence the host
	// assigned, so the device can detect intra-queue reordering (Fig. 5b).
	tag uint16
	// val carries, on data, syntheticValue(addr), so the device can detect
	// end-to-end corruption.
	val uint16
}

func (m txMsg) encode(dst []byte) {
	_ = dst[txMsgSize-1]
	dst[0] = byte(m.kind)
	dst[1] = m.cqid
	binary.BigEndian.PutUint32(dst[2:], m.id)
	binary.BigEndian.PutUint64(dst[6:], m.addr)
	binary.BigEndian.PutUint16(dst[14:], m.tag)
	binary.BigEndian.PutUint16(dst[16:], m.val)
}

func decodeTxMsg(src []byte) txMsg {
	_ = src[txMsgSize-1]
	return txMsg{
		kind: txKind(src[0]),
		cqid: src[1],
		id:   binary.BigEndian.Uint32(src[2:]),
		addr: binary.BigEndian.Uint64(src[6:]),
		tag:  binary.BigEndian.Uint16(src[14:]),
		val:  binary.BigEndian.Uint16(src[16:]),
	}
}

// syntheticValue derives the canonical memory value for an address.
func syntheticValue(addr uint64) uint16 {
	x := addr*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return uint16(x)
}

// txHost is the memory-owning agent: it executes read requests in arrival
// order and answers each with data. Per the paper, duplicate detection is
// confined to the link layer — the host executes whatever arrives, so an
// escaped duplicate becomes a redundant execution, counted but not
// suppressed.
type txHost struct {
	send     func(txMsg)
	rep      *Fig5Report
	executed map[uint32]uint32 // request ID -> times executed
	cqSeq    map[uint8]uint16  // per-CQID data delivery sequence
}

func newTxHost(rep *Fig5Report, send func(txMsg)) *txHost {
	return &txHost{send: send, rep: rep, executed: map[uint32]uint32{}, cqSeq: map[uint8]uint16{}}
}

func (h *txHost) onMessage(m txMsg) {
	if m.kind != txReq {
		return
	}
	h.executed[m.id]++
	if h.executed[m.id] > 1 {
		h.rep.DuplicateExecutions++
	}
	seq := h.cqSeq[m.cqid]
	h.cqSeq[m.cqid] = seq + 1
	h.send(txMsg{kind: txData, cqid: m.cqid, id: m.id, addr: m.addr, tag: seq, val: syntheticValue(m.addr)})
}

// txDevice issues read requests and validates the returning data stream.
type txDevice struct {
	send        func(txMsg)
	rep         *Fig5Report
	nextID      uint32
	outstanding map[uint32]uint64 // ID -> addr
	answered    map[uint32]bool
	cqNext      map[uint8]uint16 // next expected per-CQID sequence
}

func newTxDevice(rep *Fig5Report, send func(txMsg)) *txDevice {
	return &txDevice{
		send:        send,
		rep:         rep,
		outstanding: map[uint32]uint64{},
		answered:    map[uint32]bool{},
		cqNext:      map[uint8]uint16{},
	}
}

// issueRead sends a read request on the given command queue and returns
// the transaction ID.
func (d *txDevice) issueRead(addr uint64, cqid uint8) uint32 {
	id := d.nextID
	d.nextID++
	d.outstanding[id] = addr
	d.rep.Issued++
	d.send(txMsg{kind: txReq, cqid: cqid, id: id, addr: addr})
	return id
}

func (d *txDevice) onMessage(m txMsg) {
	if m.kind != txData {
		return
	}
	addr, known := d.outstanding[m.id]
	if !known {
		if d.answered[m.id] {
			// Fig. 5a at the consumer: a retried flit re-delivered data
			// for an already-completed transaction.
			d.rep.DuplicateData++
		}
		return
	}

	// Fig. 5b: within one CQID, data must arrive in host-issue order. A
	// regression (or skip) of the per-queue sequence is an ordering
	// violation the application would observe as misaligned data.
	if want := d.cqNext[m.cqid]; m.tag != want {
		d.rep.OutOfOrderData++
		// Resynchronize past the anomaly so one skip doesn't cascade.
		d.cqNext[m.cqid] = m.tag + 1
	} else {
		d.cqNext[m.cqid] = want + 1
	}

	if m.val != syntheticValue(addr) || m.addr != addr {
		d.rep.CorruptData++
	}

	delete(d.outstanding, m.id)
	d.answered[m.id] = true
	d.rep.Completed++
}

// txPeer binds an agent to its link-layer peer: each sent message rides
// its own flit, and each delivered payload is one message.
func txPeer(p *link.Peer, onMessage func(txMsg)) func(txMsg) {
	p.Deliver = func(payload []byte) { onMessage(decodeTxMsg(payload)) }
	return func(m txMsg) {
		payload := make([]byte, flit.PayloadSize)
		m.encode(payload)
		p.Submit(payload)
	}
}

// fig5Fabric builds the one-switch fabric used by both Fig. 5 scripts:
// device at endpoint A, host at endpoint B, with per-endpoint ACK
// coalescing. The asymmetry matters: only the side that acks per delivery
// piggybacks AckNums on its data flits, and only flits received *verified*
// (explicit FSN) arm acknowledgments — so the endpoint whose stream is
// attacked must receive explicit FSNs from the other direction. Both
// agents count into the returned report.
func fig5Fabric(proto link.Protocol, devCoalesce, hostCoalesce int) (*Fabric, *txDevice, *Fig5Report) {
	cfg := link.DefaultConfig(proto)
	cfg.CoalesceCount = devCoalesce
	f := MustNewFabric(Config{Protocol: proto, Levels: 1, LinkConfig: &cfg})
	f.B().Cfg.CoalesceCount = hostCoalesce

	rep := &Fig5Report{}
	dev := newTxDevice(rep, nil)
	host := newTxHost(rep, nil)
	dev.send = txPeer(f.A(), dev.onMessage)
	host.send = txPeer(f.B(), host.onMessage)
	return f, dev, rep
}
