package link

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/headq"
	"repro/internal/rs"
	"repro/internal/sim"
)

// replayEntry is the one buffer a payload lives in from Submit (or, for
// an offered payload, its first transmission) until its acknowledgment:
// queued in sendQ, then appended by pointer to the replay window — a
// slice that an acknowledgment shifts down in place, so it never outgrows
// ReplayBufferSize — then recycled on the peer's free list.
type replayEntry struct {
	seq      uint64 // absolute sequence number, assigned at first transmission
	lastSent sim.Time
	// fill, when set, stands for the payload: an offered payload is
	// fill(tag)'s output, handed to each transmission's flit as a deferred
	// payload instead of bytes, on either path. Nil for a Submitted
	// payload, the only kind whose bytes are staged in payload.
	fill    func(tag uint64, p []byte)
	tag     uint64
	payload [flit.PayloadSize]byte
}

// Peer is one end of a duplex link-layer connection: a transmitter with a
// go-back-N replay buffer and a receiver with sequence validation per the
// configured protocol. Wire both directions with Attach; hand arriving
// flits to Receive (directly, or through switches).
//
// Peers are driven entirely by the simulation engine and are not safe for
// concurrent use.
type Peer struct {
	Name string
	Eng  *sim.Engine
	Cfg  Config

	// Deliver receives each validated payload in delivery order. The
	// slice aliases the flit; copy anything retained beyond the call.
	// An offered payload reaches it generated, whatever path it took.
	Deliver func(payload []byte)
	// DeliverClean, when set, receives in Deliver's place the tag of each
	// validated payload still deferred on arrival: an offered payload
	// whose flit stayed clean end to end, its bytes provably the
	// sender's fill(tag). A consumer keyed on the tag thus never has the
	// bytes generated. Only fast-path flits carry deferred payloads.
	DeliverClean func(tag uint64)

	out *Wire
	// pool recycles the peer's flits and their images: every flit it
	// sends comes from here and returns here through whichever terminal
	// consumer ends it. A flit never leaves the goroutine that drives its
	// fabric's engine (a runner worker runs whole cells), so no lock.
	pool flit.Pool

	// Engine sinks of the pump wakeup and the retry and ACK timers, bound
	// once in NewPeer so scheduling any of them allocates nothing.
	pumpSink, retrySink, ackSink func(interface{})

	// Transmit state. Invariant: nextSeq == ackedUpTo + len(replay);
	// replay[i].seq == ackedUpTo + i.
	nextSeq       uint64
	ackedUpTo     uint64 // all sequence numbers below this are acknowledged
	replay        []*replayEntry
	cursor        int            // next replay index to (re)transmit; == len(replay) when drained
	sendQ         []*replayEntry // pending payloads from sendHead on
	sendHead      int            // consumed prefix of sendQ; array reused once drained
	free          []*replayEntry // acknowledged entries, reused by Submit and Offer
	pumpScheduled bool
	timerArmed    bool
	nakToSend     bool
	ackToSend     bool

	// The offered backlog behind sendQ: offered payloads not yet sent,
	// generated by fill into a fresh entry at first transmission and
	// tagged offerTag, offerTag+1, …
	offered  int
	offerTag uint64
	fill     func(tag uint64, p []byte)

	// Receive state. verified is the watermark: every sequence number
	// below it passed an explicit (or ISN) check. eseq is the next
	// expected sequence number; under baseline CXL it can run ahead of
	// verified when AckNum-carrying flits are forwarded unchecked.
	eseq              uint64
	verified          uint64
	deliveredSinceAck int
	ackPending        bool
	ackTimerArmed     bool
	nakOutstanding    bool
	lastNakAt         sim.Time

	Stats Stats
}

// NewPeer constructs a peer. Call Attach before submitting traffic.
func NewPeer(name string, eng *sim.Engine, cfg Config) *Peer {
	cfg.sanitize()
	p := &Peer{Name: name, Eng: eng, Cfg: cfg}
	p.pumpSink, p.retrySink, p.ackSink = p.pumpResume, p.retryTimeout, p.ackTimeout
	return p
}

// Attach connects the peer's transmitter to its outbound wire.
func (p *Peer) Attach(w *Wire) { p.out = w }

// Submit queues a payload (at most flit.PayloadSize bytes; shorter payloads
// are zero-padded) for transmission. Payload bytes are copied. It panics
// while an offered backlog remains, which it would otherwise overtake.
func (p *Peer) Submit(payload []byte) {
	if len(payload) > flit.PayloadSize {
		panic(fmt.Sprintf("link: payload %dB exceeds %dB", len(payload), flit.PayloadSize))
	}
	if p.offered > 0 {
		panic("link: Submit behind an offered backlog")
	}
	e := p.entry()
	e.fill = nil
	n := copy(e.payload[:], payload)
	clear(e.payload[n:])
	p.sendQ, p.sendHead = headq.Compact(p.sendQ, p.sendHead)
	p.sendQ = append(p.sendQ, e)
	p.pump()
}

// Offer queues n payloads behind any Submitted ones without building them:
// offered payload i (0 ≤ i < n) is what fill(i, p) writes into a zeroed
// flit.SrcRouteOffset-byte buffer (the payload short of its routing
// tags). A backlog of any depth thus costs no memory until it reaches the
// replay window, and none is staged even then: every transmission's flit
// gets fill and the tag as a deferred payload (flit.DeferPayload), which
// the byte-level reference generates at send and the fast path only when
// a byte is read, so fill must be deterministic in its tag. One backlog at
// a time: Offer panics while an earlier one remains.
func (p *Peer) Offer(n int, fill func(tag uint64, p []byte)) {
	if n < 0 || p.offered > 0 {
		panic("link: Offer needs n >= 0 and no offered backlog")
	}
	p.offered, p.offerTag, p.fill = n, 0, fill
	p.pump()
}

// entry takes a replay entry off the free list, allocating when it is
// empty.
func (p *Peer) entry() *replayEntry {
	if last := len(p.free) - 1; last >= 0 {
		e := p.free[last]
		p.free = p.free[:last]
		return e
	}
	return new(replayEntry)
}

// Queued returns the number of payloads waiting behind the replay window,
// offered ones included.
func (p *Peer) Queued() int { return len(p.sendQ) - p.sendHead + p.offered }

// nextPayload dequeues the next payload to send: the send queue's head,
// else the offered backlog's next payload, still deferred.
func (p *Peer) nextPayload() *replayEntry {
	if p.sendHead < len(p.sendQ) {
		e := p.sendQ[p.sendHead]
		p.sendHead++
		return e
	}
	e := p.entry()
	e.fill, e.tag = p.fill, p.offerTag
	p.offerTag++
	if p.offered--; p.offered == 0 {
		p.fill = nil
	}
	return e
}

// hasWork reports whether the transmitter has anything to put on the wire.
func (p *Peer) hasWork() bool {
	return p.nakToSend || p.ackToSend || p.cursor < len(p.replay) ||
		(p.Queued() > 0 && len(p.replay) < p.Cfg.ReplayBufferSize)
}

// pump schedules the next transmission at the moment the wire frees up.
// It is idempotent: one transmission is in flight per peer at a time.
func (p *Peer) pump() {
	if p.pumpScheduled || !p.hasWork() {
		return
	}
	p.pumpScheduled = true
	p.Eng.AtArg(p.out.FreeAt(), p.pumpSink, nil)
}

// pumpResume is the pump wakeup: transmit one item, then re-arm the pump.
func (p *Peer) pumpResume(interface{}) {
	p.pumpScheduled = false
	if p.transmitOne() {
		p.pump()
	}
}

// transmitOne sends the highest-priority pending item: NAK, then replay,
// then standalone ACK, then new data. It returns true if a flit was sent.
func (p *Peer) transmitOne() bool {
	switch {
	case p.nakToSend:
		p.nakToSend = false
		p.sendControl(flit.Header{
			FSN: wireSeq(p.verified), Cmd: flit.CmdNakGoBackN, Type: flit.TypeNak,
		})
		p.Stats.NakFlitsSent++
		return true

	case p.cursor < len(p.replay):
		e := p.replay[p.cursor]
		p.cursor++
		p.sendData(e, true)
		return true

	case p.ackToSend:
		p.ackToSend = false
		p.ackPending = false
		p.sendControl(flit.Header{
			FSN: wireSeq(p.verified - 1), Cmd: flit.CmdAck, Type: flit.TypeAck,
		})
		p.Stats.AckFlitsSent++
		return true

	case p.Queued() > 0 && len(p.replay) < p.Cfg.ReplayBufferSize:
		e := p.nextPayload()
		e.seq, e.lastSent = p.nextSeq, 0
		p.nextSeq++
		if p.replay == nil {
			// The window's one array, sized once at the first payload:
			// popAcked shifts the window down inside it.
			p.replay = make([]*replayEntry, 0, p.Cfg.ReplayBufferSize)
		}
		p.replay = append(p.replay, e)
		p.cursor = len(p.replay)
		p.Stats.DataFlitsSent++
		p.sendData(e, false)
		return true
	}
	return false
}

// sendControl seals and transmits a standalone control flit. Control flits
// sit outside the sequence stream and always use a plain CRC; their loss is
// recovered by the retransmission and ACK timers.
func (p *Peer) sendControl(h flit.Header) {
	f := p.pool.Get()
	f.SetHeader(h)
	f.DeferSealCXL()
	p.transmit(f)
}

// transmit is every send's tail: it stamps the fabric routing tags when
// configured — they sit inside the CRC-covered payload region, so the
// deferred seal covers them — and puts the flit on the wire. Every flit
// arrives here with its payload and seal deferred; this is the one place
// the two paths part: the byte-level reference materializes the image
// now, unmarked, so every check downstream of it runs byte-level.
func (p *Peer) transmit(f *flit.Flit) {
	if p.Cfg.StampRoute {
		f.SetRoute(p.Cfg.SrcTag, p.Cfg.RouteTag)
	}
	if !p.Cfg.FastPath {
		f.Image(flit.FEC)
	}
	p.Stats.FlitsSent++
	p.out.Send(f)
}

// sendData builds, seals and transmits the flit for a replay entry,
// applying the protocol's header/CRC semantics and consuming a pending
// piggyback acknowledgment if the protocol allows one. An offered entry
// regenerates the same payload at every transmission, replays included.
func (p *Peer) sendData(e *replayEntry, isRetransmit bool) {
	f := p.pool.Get()
	if e.fill != nil {
		f.DeferPayload(e.tag, e.fill)
	} else {
		copy(f.Payload(), e.payload[:])
	}

	h := flit.Header{Type: flit.TypeData, Cmd: flit.CmdSeq}
	piggyback := p.ackPending && p.Cfg.Protocol != ProtocolCXLNoPiggyback
	if piggyback {
		h.Cmd = flit.CmdAck
		h.FSN = wireSeq(p.verified - 1)
		p.ackPending = false
		p.ackToSend = false
		p.Stats.PiggybackedAcks++
	}

	switch p.Cfg.Protocol {
	case ProtocolRXL:
		// FSN carries only the AckNum (or zero); the sequence number
		// travels inside the CRC.
		f.SetHeader(h)
		f.DeferSealRXL(wireSeq(e.seq))
	default:
		// Baseline CXL: FSN is the explicit sequence number unless this
		// flit was chosen to carry the AckNum — the blind spot.
		if !piggyback {
			h.FSN = wireSeq(e.seq)
		}
		f.SetHeader(h)
		f.DeferSealCXL()
	}

	if isRetransmit {
		p.Stats.Retransmissions++
	}
	e.lastSent = p.Eng.Now()
	p.transmit(f)
	p.armRetryTimer()
}

// armRetryTimer schedules the transmitter-side go-back-N backstop against
// lost ACK/NAK flits.
func (p *Peer) armRetryTimer() {
	if p.timerArmed || len(p.replay) == 0 {
		return
	}
	p.timerArmed = true
	deadline := p.replay[0].lastSent + p.Cfg.RetryTimeout
	d := deadline - p.Eng.Now()
	if d < 0 {
		d = 0
	}
	p.Eng.ScheduleArg(d, p.retrySink, nil)
}

// retryTimeout fires the retry timer: replay the whole window when its head
// has waited a full RetryTimeout, then re-arm.
func (p *Peer) retryTimeout(interface{}) {
	p.timerArmed = false
	if len(p.replay) == 0 {
		return
	}
	if p.Eng.Now()-p.replay[0].lastSent >= p.Cfg.RetryTimeout {
		p.Stats.TimeoutRetries++
		p.cursor = 0
		// Stamp the head now: the replay is *scheduled* even if the wire
		// is momentarily busy, so the timer must back off a full period
		// rather than re-fire with zero delay until the wire frees (which
		// would live-lock the event loop at one timestamp on busy shared
		// wires).
		p.replay[0].lastSent = p.Eng.Now()
	}
	p.pump()
	p.armRetryTimer()
}

// Receive processes a flit arriving from the wire (after any switches).
// The peer is the flit's terminal consumer: a pooled flit goes back to its
// sender's pool when processing completes (payloads handed to Deliver
// alias the image and must be copied if retained, per the Deliver
// contract).
func (p *Peer) Receive(f *flit.Flit) {
	p.receive(f)
	flit.Release(f)
}

// receive is the Receive body. On a clean flit every integrity operation
// below — FEC decode, CRC / ISN check — short-circuits in O(1) inside the
// flit layer, so the clean path runs no byte-level work at all.
func (p *Peer) receive(f *flit.Flit) {
	p.Stats.FlitsReceived++

	res := f.DecodeFEC(flit.FEC)
	switch res.Status {
	case rs.StatusUncorrectable:
		// The endpoint knows this flit is bad but not what it was:
		// request a replay from the verified watermark.
		p.Stats.FecUncorrectable++
		p.requestNak()
		return
	case rs.StatusCorrected:
		p.Stats.FecCorrectedFlits++
		p.Stats.FecCorrectedSymbols += uint64(res.Corrected)
	}

	h := f.Header()
	switch h.Type {
	case flit.TypeNak:
		if f.CheckCRC() {
			p.onNak(h.FSN)
		} else {
			p.Stats.ControlCrcErrors++
		}
	case flit.TypeAck:
		if f.CheckCRC() {
			p.Stats.AcksReceived++
			p.onAck(h.FSN)
		} else {
			p.Stats.ControlCrcErrors++
		}
	case flit.TypeData:
		switch p.Cfg.Protocol {
		case ProtocolRXL:
			p.rxDataRXL(f, h)
		default:
			p.rxDataCXL(f, h)
		}
	}
}

// rxDataCXL implements the baseline receiver (Section 4.1): explicit
// sequence checks when the FSN carries a sequence number, and unverified
// forwarding when it carries an AckNum.
func (p *Peer) rxDataCXL(f *flit.Flit, h flit.Header) {
	if !f.CheckCRC() {
		p.Stats.CrcErrors++
		p.requestNak()
		return
	}
	switch h.Cmd {
	case flit.CmdSeq:
		abs := absFromWire(h.FSN, p.eseq)
		switch {
		case abs == p.eseq:
			p.deliverPayload(f)
			p.eseq++
			p.advanceVerified(p.eseq)
			p.nakOutstanding = false
		case abs > p.eseq:
			// A preceding flit is missing: go-back-N from the verified
			// watermark.
			p.Stats.GapsDetected++
			p.requestNak()
		default:
			p.Stats.DuplicatesDropped++
			// A replay below eseq can only mean the region was consumed
			// unverified (AckNum-carrying flits). The explicit number
			// confirms stream alignment through abs, so raise the
			// verified watermark — otherwise acknowledgments would
			// stall at the unverified region and wedge the transmitter.
			if abs >= p.verified {
				p.advanceVerified(abs + 1)
			}
			// Any duplicate means the transmitter is replaying flits we
			// already hold — its window is stalled on an acknowledgment
			// that was coalesced away or lost. Acknowledge promptly so
			// the replay converges instead of looping on the timer.
			p.scheduleAck()
		}

	case flit.CmdAck:
		p.onAck(h.FSN)
		if p.nakOutstanding {
			// Mid-replay every unverifiable flit is dropped; the
			// go-back-N stream will resend its payload.
			p.Stats.UnverifiedDiscarded++
			return
		}
		// THE CXL BLIND SPOT: this flit's sequence number was displaced
		// by the AckNum, so the receiver cannot verify ordering. It
		// forwards the payload and advances its expectation — even if a
		// preceding flit was silently dropped by a switch (Fig. 4).
		p.deliverPayload(f)
		p.Stats.UnverifiedDelivered++
		p.eseq++
	}
}

// rxDataRXL implements the ISN receiver (Section 5): a single CRC check
// with the expected sequence number folded in validates payload integrity
// and sequence position at once.
func (p *Peer) rxDataRXL(f *flit.Flit, h flit.Header) {
	if !f.CheckCRCISN(wireSeq(p.eseq)) {
		// Corruption, drop, or reorder — indistinguishable and all
		// handled identically: go-back-N from the verified watermark.
		p.Stats.CrcErrors++
		p.requestNak()
		return
	}
	if h.Cmd == flit.CmdAck {
		// The header is covered by the just-validated CRC, so the
		// piggybacked AckNum is trustworthy — RXL keeps piggybacking
		// without giving up sequence protection.
		p.onAck(h.FSN)
	}
	p.deliverPayload(f)
	p.eseq++
	p.advanceVerified(p.eseq)
	p.nakOutstanding = false
}

// requestNak schedules a NAK carrying the retry-from watermark, with a
// cooldown so replay storms don't amplify.
func (p *Peer) requestNak() {
	now := p.Eng.Now()
	if p.nakOutstanding && now-p.lastNakAt < p.Cfg.RetryTimeout/2 {
		return
	}
	p.nakOutstanding = true
	p.lastNakAt = now
	// Roll the expectation back to the verified watermark so replayed
	// flits are accepted (under RXL eseq never ran ahead of it).
	p.eseq = p.verified
	p.nakToSend = true
	p.pump()
}

// deliverPayload hands the flit payload to the upper layer: a payload
// still deferred goes to DeliverClean by its tag when one is set, anything
// else to Deliver, generated first if need be.
func (p *Peer) deliverPayload(f *flit.Flit) {
	p.Stats.Delivered++
	if tag, ok := f.DeferredPayload(); ok && p.DeliverClean != nil {
		p.DeliverClean(tag)
		return
	}
	if p.Deliver != nil {
		p.Deliver(f.Payload())
	}
}

// advanceVerified raises the verified watermark to `to` and runs ACK
// coalescing: one acknowledgment per CoalesceCount verified flits
// (p_coalescing = 1/CoalesceCount).
func (p *Peer) advanceVerified(to uint64) {
	if to <= p.verified {
		return
	}
	p.deliveredSinceAck += int(to - p.verified)
	p.verified = to
	if p.deliveredSinceAck >= p.Cfg.CoalesceCount {
		p.deliveredSinceAck = 0
		p.scheduleAck()
	}
}

// scheduleAck marks an acknowledgment as pending and arranges for it to go
// out: immediately as a standalone flit when piggybacking is disabled,
// otherwise piggybacked on the next reverse data flit with the ACK timer as
// the backstop.
func (p *Peer) scheduleAck() {
	p.ackPending = true
	if p.Cfg.Protocol == ProtocolCXLNoPiggyback {
		p.ackToSend = true
	} else {
		p.armAckTimer()
	}
	p.pump()
}

// armAckTimer bounds how long a pending acknowledgment waits for a reverse
// data flit to piggyback on before a standalone ACK is sent.
func (p *Peer) armAckTimer() {
	if p.ackTimerArmed {
		return
	}
	p.ackTimerArmed = true
	p.Eng.ScheduleArg(p.Cfg.AckTimeout, p.ackSink, nil)
}

// ackTimeout fires the ACK timer: an acknowledgment still pending goes out
// as a standalone flit.
func (p *Peer) ackTimeout(interface{}) {
	p.ackTimerArmed = false
	if p.ackPending {
		p.ackToSend = true
		p.pump()
	}
}

// onAck frees acknowledged replay entries. fsn is the last verified
// sequence number at the remote receiver, in wire form.
func (p *Peer) onAck(fsn uint16) {
	if len(p.replay) == 0 {
		return
	}
	ackAbs := absFromWire(fsn, p.nextSeq-1)
	if ackAbs >= p.nextSeq {
		ackAbs = p.nextSeq - 1
	}
	p.popAcked(ackAbs + 1)
	p.pump()
}

// onNak processes a go-back-N request. fsn is the remote retry-from
// sequence number (the verified watermark) in wire form: everything below
// it is implicitly acknowledged, everything at or above it is replayed.
func (p *Peer) onNak(fsn uint16) {
	p.Stats.NaksReceived++
	retry := absFromWire(fsn, p.ackedUpTo)
	if retry < p.ackedUpTo {
		retry = p.ackedUpTo
	}
	if retry > p.nextSeq {
		retry = p.nextSeq
	}
	p.popAcked(retry)
	if len(p.replay) > 0 {
		p.cursor = 0
		p.Stats.GoBackNRounds++
	}
	p.pump()
}

// popAcked moves replay entries with sequence numbers below watermark to
// the free list.
func (p *Peer) popAcked(watermark uint64) {
	n := 0
	for n < len(p.replay) && p.replay[n].seq < watermark {
		n++
	}
	if n == 0 {
		return
	}
	p.free = append(p.free, p.replay[:n]...)
	// Shift the window down inside its own array: re-slicing past the
	// acknowledged prefix would shrink the capacity at every ACK and make
	// the next appends reallocate the window.
	p.replay = append(p.replay[:0], p.replay[n:]...)
	p.ackedUpTo += uint64(n)
	p.cursor -= n
	if p.cursor < 0 {
		p.cursor = 0
	}
}
