// Package flit implements the CXL 3.0 256-byte flit format and its RXL
// extension, as laid out in Fig. 3 of the paper:
//
//	┌──────────┬───────────────┬──────────┬──────────┐
//	│ 2B header│ 240B payload  │  8B CRC  │  6B FEC  │
//	└──────────┴───────────────┴──────────┴──────────┘
//
// The 2-byte header packs a 10-bit Flit Sequence Number (FSN), a 2-bit
// ReplayCmd and a 4-bit Type. Under baseline CXL the FSN field is
// multiplexed: it carries the flit's own sequence number when ReplayCmd is
// CmdSeq and an acknowledgment number otherwise — the blind spot the paper
// exploits. Under RXL the FSN only ever carries AckNums (or zero) and the
// sequence number is folded into the CRC (ISN).
//
// The CRC covers header+payload (plus the folded sequence number under
// ISN); the FEC covers header+payload+CRC (250 bytes) with the 3-way
// interleaved single-symbol-correct Reed-Solomon code from internal/rs.
//
// Both coding kernels dispatch on CPU features at startup (CLMUL CRC
// folding, word-parallel RS syndromes; see DESIGN.md §4). The bytes a
// sealed flit carries are identical on every path — TestSealReference
// pins them against the portable reference kernels.
package flit

import (
	"fmt"
	"sync"

	"repro/internal/crc"
	"repro/internal/rs"
)

// Geometry of the 256-byte flit.
const (
	Size          = 256      // total wire bytes
	Bits          = Size * 8 // channel-unit width of one flit
	HeaderSize    = 2
	PayloadSize   = 240
	CRCSize       = 8
	FECSize       = 6
	ProtectedSize = HeaderSize + PayloadSize + CRCSize // FEC-covered region

	headerOff  = 0
	payloadOff = HeaderSize
	crcOff     = HeaderSize + PayloadSize
	fecOff     = ProtectedSize
)

// FSNMask masks the 10-bit flit sequence number.
const FSNMask uint16 = 1<<10 - 1

// Fabric routing tags. Multi-endpoint fabrics (mesh, torus) route by a
// destination tag carried in the payload; a source tag lets the receiving
// node demultiplex to the right link-layer peer. Both live inside the
// CRC-protected region, so tag corruption is end-to-end detectable under
// RXL. Point-to-point topologies ignore these bytes.
const (
	// RouteOffset is the payload byte holding the destination tag.
	RouteOffset = PayloadSize - 1
	// SrcRouteOffset is the payload byte holding the source tag.
	SrcRouteOffset = PayloadSize - 2
)

// ReplayCmd selects the meaning of the FSN field (Section 4.1).
type ReplayCmd uint8

const (
	// CmdSeq: FSN carries the flit's own explicit sequence number.
	CmdSeq ReplayCmd = 0
	// CmdAck: FSN carries the acknowledgment sequence number (piggyback).
	CmdAck ReplayCmd = 1
	// CmdNakGoBackN: FSN is the last valid received SeqNum; the sender
	// must replay everything after it (go-back-N).
	CmdNakGoBackN ReplayCmd = 2
	// CmdNakSingle: FSN is the last valid received SeqNum; single-flit
	// retry (defined by CXL; the protocols here use go-back-N, §5).
	CmdNakSingle ReplayCmd = 3
)

// String implements fmt.Stringer.
func (c ReplayCmd) String() string {
	switch c {
	case CmdSeq:
		return "SEQ"
	case CmdAck:
		return "ACK"
	case CmdNakGoBackN:
		return "NAK-GBN"
	case CmdNakSingle:
		return "NAK-1"
	default:
		return fmt.Sprintf("ReplayCmd(%d)", uint8(c))
	}
}

// Type is the 4-bit flit type carried in the header.
type Type uint8

const (
	// TypeData carries transaction-layer payload.
	TypeData Type = 0
	// TypeAck is a standalone acknowledgment flit (used when ACK
	// piggybacking is disabled, Section 7.2.2 option 2).
	TypeAck Type = 1
	// TypeNak is a standalone negative acknowledgment requesting replay.
	TypeNak Type = 2
	// TypeIdle fills the link when no payload is pending.
	TypeIdle Type = 3
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeAck:
		return "ACK"
	case TypeNak:
		return "NAK"
	case TypeIdle:
		return "IDLE"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Header is the decoded 2-byte flit header.
type Header struct {
	FSN  uint16 // 10-bit sequence or acknowledgment number
	Cmd  ReplayCmd
	Type Type
}

// Pack encodes the header into its 2-byte wire form:
// byte0 = FSN[9:2], byte1 = FSN[1:0] | Cmd<<2 | Type<<4.
func (h Header) Pack() [2]byte {
	fsn := h.FSN & FSNMask
	var b [2]byte
	b[0] = byte(fsn >> 2)
	b[1] = byte(fsn&0x3) | byte(h.Cmd&0x3)<<2 | byte(h.Type&0xF)<<4
	return b
}

// UnpackHeader decodes a 2-byte wire header.
func UnpackHeader(b [2]byte) Header {
	return Header{
		FSN:  uint16(b[0])<<2 | uint16(b[1])&0x3,
		Cmd:  ReplayCmd(b[1] >> 2 & 0x3),
		Type: Type(b[1] >> 4 & 0xF),
	}
}

// sealKind records which CRC semantics a flit's seal (deferred or
// materialized) uses.
type sealKind uint8

const (
	sealNone  sealKind = iota
	sealPlain          // SealCXL: plain CRC over header+payload
	sealISN            // SealRXL: ISN CRC with the folded sequence number
)

// Flit is a 256-byte wire flit. The zero value is a valid idle flit shell;
// call SetHeader/Payload and Seal before transmission.
//
// Beyond the wire image, a flit carries error-event fast-path state that
// never appears on the wire: a seal record (kind and ISN sequence number)
// and a clean mark. A clean flit's image is known to be bit-identical to
// its sealed form — no channel or switch has touched it — so every
// integrity check (CheckCRC, CheckCRCISN, DecodeFEC) short-circuits to its
// provable outcome in O(1). Anything that mutates Raw outside those
// methods must call Taint (after Materialize if the seal is still
// deferred) or the clean mark lies.
type Flit struct {
	Raw [Size]byte

	kind     sealKind
	isnSeq   uint16
	clean    bool  // image is bit-identical to the sealed image
	deferred bool  // CRC/FEC fields not yet materialized
	pooled   bool  // obtained from Get; recyclable via Release
	pass     uint8 // remaining path-pass hops (shared-schedule grant)
}

// pool recycles flit images across transmissions. The slow path allocates
// one 256B image per flit per transmission otherwise; reuse keeps the
// Monte-Carlo inner loop allocation-free.
var pool = sync.Pool{New: func() interface{} { return new(Flit) }}

// Get returns a zeroed flit from the package pool. Pooled flits are
// recycled by Release at their consumption points (endpoint receive,
// switch drops, fault-hook drops); flits allocated directly are never
// pooled, so mixing both is safe.
func Get() *Flit {
	f := pool.Get().(*Flit)
	*f = Flit{}
	f.pooled = true
	return f
}

// Release returns a pooled flit for reuse. It is a no-op for flits that
// did not come from Get, so termination points may call it
// unconditionally. The caller must not touch the flit afterwards.
func Release(f *Flit) {
	if f == nil || !f.pooled {
		return
	}
	f.pooled = false
	pool.Put(f)
}

// Header decodes the current header bytes.
func (f *Flit) Header() Header {
	return UnpackHeader([2]byte{f.Raw[headerOff], f.Raw[headerOff+1]})
}

// SetHeader encodes h into the header bytes. The flit must be re-Sealed
// afterwards for the CRC and FEC to match.
func (f *Flit) SetHeader(h Header) {
	b := h.Pack()
	f.Raw[headerOff] = b[0]
	f.Raw[headerOff+1] = b[1]
}

// Payload returns the 240-byte payload region as a mutable slice into the
// flit.
func (f *Flit) Payload() []byte { return f.Raw[payloadOff : payloadOff+PayloadSize] }

// CRCField returns the stored 8-byte CRC as a uint64.
func (f *Flit) CRCField() uint64 {
	var v uint64
	for i := 0; i < CRCSize; i++ {
		v = v<<8 | uint64(f.Raw[crcOff+i])
	}
	return v
}

// setCRCField stores the 8-byte CRC.
func (f *Flit) setCRCField(v uint64) {
	for i := CRCSize - 1; i >= 0; i-- {
		f.Raw[crcOff+i] = byte(v)
		v >>= 8
	}
}

// FECField returns the 6-byte FEC parity region as a mutable slice.
func (f *Flit) FECField() []byte { return f.Raw[fecOff : fecOff+FECSize] }

// protected returns the FEC-covered region (header+payload+CRC).
func (f *Flit) protected() []byte { return f.Raw[:ProtectedSize] }

// crcInput returns the CRC-covered region (header+payload).
func (f *Flit) crcInput() []byte { return f.Raw[:crcOff] }

// SealCXL finalizes a baseline CXL flit: plain CRC over header+payload,
// then FEC over the protected region. The sequence number, if any, must
// already be present in the header FSN field. Eager seals leave the flit
// unmarked, so every downstream integrity check runs byte-level — the
// slow-path reference behavior.
func (f *Flit) SealCXL(fec *rs.Interleaved) {
	f.kind = sealPlain
	f.clean = false
	f.deferred = false
	f.setCRCField(crc.Checksum(f.crcInput()))
	fec.Encode(f.protected(), f.FECField())
}

// SealRXL finalizes an RXL flit: ISN CRC over header+payload with seq
// folded in, then FEC over the protected region. The header FSN field
// carries only AckNum (or zero) under RXL; seq never appears on the wire.
func (f *Flit) SealRXL(seq uint16, fec *rs.Interleaved) {
	f.kind = sealISN
	f.isnSeq = seq & FSNMask
	f.clean = false
	f.deferred = false
	f.setCRCField(crc.ChecksumISN(f.isnSeq, f.crcInput()))
	fec.Encode(f.protected(), f.FECField())
}

// DeferSealCXL records plain-CRC seal semantics and marks the flit clean
// without computing the CRC or FEC bytes: as long as the flit stays clean
// nothing ever reads them, and Materialize produces them on demand the
// moment a channel or fault point needs the byte-complete image.
func (f *Flit) DeferSealCXL() {
	f.kind = sealPlain
	f.clean = true
	f.deferred = true
}

// DeferSealRXL is DeferSealCXL with ISN semantics: the sequence number is
// recorded for the deferred CRC and for O(1) clean-path ISN validation.
func (f *Flit) DeferSealRXL(seq uint16) {
	f.kind = sealISN
	f.isnSeq = seq & FSNMask
	f.clean = true
	f.deferred = true
}

// Clean reports whether the image is known to be bit-identical to its
// sealed form.
func (f *Flit) Clean() bool { return f.clean }

// SetPathPass grants the flit `hops` further wire crossings whose channel
// work a shared path schedule has already consumed (phy.SharedSchedule's
// whole-traversal grant). The pass says nothing about the image — it only
// records that the error-event schedule was advanced across those
// crossings up front, so they must not consume it again.
func (f *Flit) SetPathPass(hops int) {
	if hops < 0 || hops > 255 {
		panic("flit: path pass out of range")
	}
	f.pass = uint8(hops)
}

// TakePathPass consumes one granted crossing, reporting whether the flit
// held one. Each wire crossing on a shared-schedule path calls it exactly
// once before any channel work.
func (f *Flit) TakePathPass() bool {
	if f.pass == 0 {
		return false
	}
	f.pass--
	return true
}

// Taint clears the clean mark; call it after mutating Raw. A deferred
// seal must be materialized first — corrupting an image whose CRC/FEC
// bytes do not exist yet would diverge from byte-level semantics.
func (f *Flit) Taint() {
	if f.deferred {
		panic("flit: Taint before Materialize")
	}
	f.clean = false
}

// Materialize computes the CRC and FEC fields of a deferred seal, making
// the image byte-complete and bit-identical to an eager seal. It is a
// no-op when the seal was never deferred.
func (f *Flit) Materialize(fec *rs.Interleaved) {
	if !f.deferred {
		return
	}
	f.deferred = false
	if f.kind == sealISN {
		f.setCRCField(crc.ChecksumISN(f.isnSeq, f.crcInput()))
	} else {
		f.setCRCField(crc.Checksum(f.crcInput()))
	}
	fec.Encode(f.protected(), f.FECField())
}

// ReencodeFEC recomputes the FEC parity without touching the CRC. Switches
// use this on egress after their internal fault point touched the image:
// under RXL the end-to-end CRC passes through untouched while FEC is
// terminated per hop (Section 6.4). The image must be materialized.
func (f *Flit) ReencodeFEC(fec *rs.Interleaved) {
	fec.Encode(f.protected(), f.FECField())
}

// DecodeFEC runs the link-layer FEC decoder over the flit, correcting the
// protected region and parity in place where possible. A clean flit is a
// valid codeword by construction, so the decode short-circuits in O(1).
func (f *Flit) DecodeFEC(fec *rs.Interleaved) rs.Result {
	if f.clean {
		return rs.Result{Status: rs.StatusClean}
	}
	return fec.Decode(f.protected(), f.FECField())
}

// CheckCRC verifies the stored CRC against a plain checksum of
// header+payload (baseline CXL semantics). Clean flits resolve in O(1):
// the check passes exactly when the seal used plain semantics (an ISN
// seal with sequence number zero folds nothing and is byte-identical).
func (f *Flit) CheckCRC() bool {
	if f.clean {
		return f.kind == sealPlain || (f.kind == sealISN && f.isnSeq == 0)
	}
	return crc.Checksum(f.crcInput()) == f.CRCField()
}

// CheckCRCISN verifies the stored CRC against the ISN checksum computed
// with the receiver's expected sequence number. A false result means the
// payload was corrupted, the flit is out of sequence, or both — the binary
// verdict ISN trades reordering support for (Section 5).
//
// Clean flits resolve in O(1): two ISN checksums over identical data with
// different 10-bit sequence numbers differ with certainty (the fold is a
// 2-byte burst, which a 64-bit CRC always detects), so the byte-level
// verdict is exactly a sequence-number comparison.
func (f *Flit) CheckCRCISN(eseq uint16) bool {
	if f.clean {
		eseq &= FSNMask
		if f.kind == sealISN {
			return f.isnSeq == eseq
		}
		return eseq == 0 // a plain seal is an ISN seal with seq 0
	}
	return crc.ChecksumISN(eseq, f.crcInput()) == f.CRCField()
}

// RecomputeCRC rewrites the CRC over the current header+payload (plain
// semantics). CXL switches do this on egress after terminating the
// link-layer CRC — the step that leaves switch-internal corruption
// unprotected in baseline CXL (Section 6.3). The image must be
// materialized.
func (f *Flit) RecomputeCRC() {
	f.setCRCField(crc.Checksum(f.crcInput()))
}

// NewFEC returns a fresh instance of the spec FEC geometry for 256B flits:
// 3-way interleaved, 2 parity symbols per way over the 250-byte protected
// region. Each goroutine/entity needs its own (scratch buffers are reused).
func NewFEC() *rs.Interleaved {
	return rs.MustNewInterleaved(ProtectedSize)
}
