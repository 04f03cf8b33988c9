package transaction

// HostStats counts host-side transaction events, including the Fig. 5a
// failure signature: the same request executed more than once.
type HostStats struct {
	RequestsExecuted    uint64
	DuplicateExecutions uint64 // Fig. 5a: redundant request processing
}

// Host is the memory-owning agent: it executes read requests in arrival
// order and emits KindData responses. Per the paper, duplicate detection is
// confined to the link layer — the host deliberately executes whatever
// arrives, so an escaped duplicate becomes a redundant execution, counted
// but not suppressed.
type Host struct {
	// Send transmits a response message toward the device.
	Send func(Message)

	executed map[uint32]uint32 // request ID -> times executed
	cqSeq    map[uint8]uint16  // per-CQID data delivery sequence

	Stats HostStats
}

// NewHost constructs a host agent.
func NewHost(send func(Message)) *Host {
	return &Host{Send: send, executed: make(map[uint32]uint32), cqSeq: make(map[uint8]uint16)}
}

// OnMessage processes one arriving message.
func (h *Host) OnMessage(m Message) {
	if m.Kind != KindReq {
		return
	}
	h.Stats.RequestsExecuted++
	h.executed[m.ID]++
	if h.executed[m.ID] > 1 {
		h.Stats.DuplicateExecutions++
	}
	seq := h.cqSeq[m.CQID]
	h.cqSeq[m.CQID] = seq + 1
	h.Send(Message{
		Kind: KindData,
		CQID: m.CQID,
		ID:   m.ID,
		Addr: m.Addr,
		Tag:  seq,
		Val:  SyntheticValue(m.Addr),
	})
}

// DeviceStats counts device-side transaction events, including both Fig. 5
// failure signatures and end-to-end data corruption.
type DeviceStats struct {
	Issued         uint64
	Completed      uint64
	DuplicateData  uint64 // same transaction answered more than once (Fig. 5a)
	OutOfOrderData uint64 // intra-CQID sequence regression (Fig. 5b)
	CorruptData    uint64 // value does not match the address (Fail_data)
	UnknownData    uint64 // data for a transaction never issued
}

// Device issues read requests and validates the returning data stream.
type Device struct {
	// Send transmits a request message toward the host.
	Send func(Message)

	nextID      uint32
	outstanding map[uint32]uint64 // ID -> Addr
	answered    map[uint32]bool
	cqNext      map[uint8]uint16 // next expected per-CQID sequence

	Stats DeviceStats
}

// NewDevice constructs a device agent.
func NewDevice(send func(Message)) *Device {
	return &Device{
		Send:        send,
		outstanding: make(map[uint32]uint64),
		answered:    make(map[uint32]bool),
		cqNext:      make(map[uint8]uint16),
	}
}

// IssueRead sends a read request on the given command queue and returns the
// transaction ID.
func (d *Device) IssueRead(addr uint64, cqid uint8) uint32 {
	id := d.nextID
	d.nextID++
	d.outstanding[id] = addr
	d.Stats.Issued++
	d.Send(Message{Kind: KindReq, CQID: cqid, ID: id, Addr: addr})
	return id
}

// OnMessage validates one arriving message against the issued stream.
func (d *Device) OnMessage(m Message) {
	if m.Kind != KindData {
		return
	}
	addr, known := d.outstanding[m.ID]
	if !known {
		if d.answered[m.ID] {
			// Fig. 5a at the consumer: a retried flit re-delivered data
			// for an already-completed transaction.
			d.Stats.DuplicateData++
		} else {
			d.Stats.UnknownData++
		}
		return
	}

	// Fig. 5b: within one CQID, data must arrive in host-issue order. A
	// regression (or skip) of the per-queue sequence is an ordering
	// violation the application would observe as misaligned data.
	if want := d.cqNext[m.CQID]; m.Tag != want {
		d.Stats.OutOfOrderData++
		// Resynchronize past the anomaly so one skip doesn't cascade.
		d.cqNext[m.CQID] = m.Tag + 1
	} else {
		d.cqNext[m.CQID] = want + 1
	}

	if m.Val != SyntheticValue(addr) || m.Addr != addr {
		d.Stats.CorruptData++
	}

	delete(d.outstanding, m.ID)
	d.answered[m.ID] = true
	d.Stats.Completed++
}
