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
// Both coding kernels have a fast path beside their reference (CLMUL CRC
// folding, the slicing-by-8 RS remainder; see DESIGN.md §4). The bytes a
// sealed flit carries are identical on every path — TestSealReference
// pins them against the portable reference kernels.
package flit

import (
	"fmt"

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
	sealPlain          // DeferSealCXL: plain CRC over header+payload
	sealISN            // DeferSealRXL: ISN CRC with the folded sequence number
)

// Flit is a 256-byte wire flit. The zero value is a valid idle flit shell;
// call SetHeader/Payload and Seal before transmission.
//
// A flit is a small value until something needs its bytes: the header,
// the routing tags, a seal record (kind and ISN sequence number), a clean
// mark and possibly a deferred payload (a tag and the generator of its
// bytes). A clean flit's image is known to be bit-identical to its sealed
// form — no channel or switch has touched it — so every integrity check
// (CheckCRC, CheckCRCISN, DecodeFEC) short-circuits to its provable
// outcome in O(1), and no 256-byte image exists at all. Image, Payload and
// Materialize attach one, as does a byte-level check of an unmarked flit:
// a zeroed image from the flit's Pool (or a fresh one) with the header and
// tags written into it, and from then on the image is the truth. Image is
// the one door to it; it completes the image and drops the clean mark
// first, so the mark cannot lie.
//
// Copying a Flit copies the value and shares its image: writes through
// either copy's Image land in both. Release one copy only.
type Flit struct {
	raw  *[Size]byte // the wire image; nil until attached
	home *Pool       // the pool Release returns the flit to; nil if unpooled

	fill     func(tag uint64, p []byte) // deferred payload generator; nil once generated
	tag      uint64                     // fill's argument
	hdr      [HeaderSize]byte           // packed header while no image is attached
	src, dst byte                       // routing tags while no image is attached
	kind     sealKind
	isnSeq   uint16
	clean    bool  // image is bit-identical to the sealed image
	deferred bool  // CRC/FEC fields not yet materialized
	pass     uint8 // remaining path-pass hops (shared-schedule grant)
}

// Pool is a free list of flits and of their images. It takes no lock and
// is not safe for concurrent use: its owner (a link peer) runs on one
// engine, and a released flit returns to the pool it came from. Unlike a
// GC-cleared cache, the list keeps what it holds, so a warm owner
// allocates nothing. The zero value is an empty pool.
type Pool struct {
	flits  []*Flit
	images []*[Size]byte // zeroed, ready to attach
}

// Get returns a zeroed flit with no image, taken off the free list when
// one is there. Get's flits are recycled by Release at their consumption
// points (endpoint receive, switch drops, fault-hook drops); flits
// allocated directly are never pooled, so mixing both is safe.
func (p *Pool) Get() *Flit {
	var f *Flit
	if last := len(p.flits) - 1; last >= 0 {
		f = p.flits[last]
		p.flits = p.flits[:last]
	} else {
		f = new(Flit)
	}
	f.home = p
	return f
}

// image returns a zeroed image off the free list, or a fresh one. A nil
// pool, an unpooled flit's home, always allocates.
func (p *Pool) image() *[Size]byte {
	if p != nil {
		if last := len(p.images) - 1; last >= 0 {
			img := p.images[last]
			p.images = p.images[:last]
			return img
		}
	}
	return new([Size]byte)
}

// Release returns a pooled flit, and its image if it has one, to the pool
// it came from. It is a no-op for flits that did not come from Get and for
// a flit already released, so termination points may call it
// unconditionally. The caller must not touch the flit afterwards.
func Release(f *Flit) {
	if f == nil || f.home == nil {
		return
	}
	p := f.home
	if f.raw != nil {
		*f.raw = [Size]byte{}
		p.images = append(p.images, f.raw)
	}
	*f = Flit{}
	p.flits = append(p.flits, f)
}

// attach gives the flit its image, if it has none yet: a zeroed one from
// its pool with the header and routing tags written in. It returns the
// image.
func (f *Flit) attach() *[Size]byte {
	if f.raw == nil {
		f.raw = f.home.image()
		f.raw[headerOff], f.raw[headerOff+1] = f.hdr[0], f.hdr[1]
		f.raw[payloadOff+SrcRouteOffset], f.raw[payloadOff+RouteOffset] = f.src, f.dst
	}
	return f.raw
}

// Header decodes the current header.
func (f *Flit) Header() Header {
	if f.raw == nil {
		return UnpackHeader(f.hdr)
	}
	return UnpackHeader([2]byte{f.raw[headerOff], f.raw[headerOff+1]})
}

// SetHeader encodes h into the header. The flit must be re-Sealed
// afterwards for the CRC and FEC to match.
func (f *Flit) SetHeader(h Header) {
	b := h.Pack()
	if f.raw == nil {
		f.hdr = b
		return
	}
	f.raw[headerOff], f.raw[headerOff+1] = b[0], b[1]
}

// Payload returns the 240-byte payload region as a mutable slice into the
// flit's image, attaching it and generating a deferred payload first.
func (f *Flit) Payload() []byte {
	f.fillPayload()
	return f.raw[payloadOff : payloadOff+PayloadSize]
}

// DeferPayload records the payload as fill's output for tag without
// generating it: fill(tag, p) writes into p, the payload region short of
// the two routing-tag bytes (SrcRouteOffset bytes long), and must be
// deterministic in tag. p is zero by construction as long as nothing wrote
// the payload before: an image attaches zeroed, and Release zeroes the
// image it recycles. Like a deferred seal's CRC and FEC, nothing needs
// those bytes while the flit stays clean; Payload and Image — the one way
// out of the clean state — generate them the first time they are needed,
// so every byte-level image is complete. The routing tags lie outside
// fill's reach and are set with SetRoute either way.
func (f *Flit) DeferPayload(tag uint64, fill func(tag uint64, p []byte)) {
	f.tag, f.fill = tag, fill
}

// DeferredPayload reports the tag of a payload still deferred. No byte of
// it has been read or touched, so it is exactly fill(tag)'s output, and a
// receiver may take it as intact from the tag alone.
func (f *Flit) DeferredPayload() (tag uint64, ok bool) { return f.tag, f.fill != nil }

// fillPayload attaches the image and generates a deferred payload into
// it, if one is pending.
func (f *Flit) fillPayload() {
	raw := f.attach()
	if f.fill != nil {
		f.fill(f.tag, raw[payloadOff:payloadOff+SrcRouteOffset])
		f.fill = nil
	}
}

// Route returns the fabric routing tags. It never attaches an image or
// generates a deferred payload: the tags lie outside it.
func (f *Flit) Route() (src, dst byte) {
	if f.raw == nil {
		return f.src, f.dst
	}
	return f.raw[payloadOff+SrcRouteOffset], f.raw[payloadOff+RouteOffset]
}

// SetRoute writes the fabric routing tags without attaching an image or
// generating a deferred payload. The flit must be (re-)Sealed afterwards.
func (f *Flit) SetRoute(src, dst byte) {
	if f.raw == nil {
		f.src, f.dst = src, dst
		return
	}
	f.raw[payloadOff+SrcRouteOffset], f.raw[payloadOff+RouteOffset] = src, dst
}

// crcField returns the stored 8-byte CRC as a uint64.
func (f *Flit) crcField() uint64 {
	raw := f.attach()
	var v uint64
	for i := 0; i < CRCSize; i++ {
		v = v<<8 | uint64(raw[crcOff+i])
	}
	return v
}

// setCRCField stores the 8-byte CRC.
func (f *Flit) setCRCField(v uint64) {
	raw := f.attach()
	for i := CRCSize - 1; i >= 0; i-- {
		raw[crcOff+i] = byte(v)
		v >>= 8
	}
}

// fecField returns the 6-byte FEC parity region as a mutable slice.
func (f *Flit) fecField() []byte { return f.attach()[fecOff : fecOff+FECSize] }

// protected returns the FEC-covered region (header+payload+CRC).
func (f *Flit) protected() []byte { return f.attach()[:ProtectedSize] }

// crcInput returns the CRC-covered region (header+payload).
func (f *Flit) crcInput() []byte { return f.attach()[:crcOff] }

// SealCXL finalizes a baseline CXL flit eagerly: DeferSealCXL, then Image,
// so the plain CRC and the FEC are computed where a deferred seal's are.
// The flit leaves unmarked, so every downstream integrity check runs
// byte-level. The sequence number, if any, must already be present in the
// header FSN field.
func (f *Flit) SealCXL(fec *rs.Interleaved) {
	f.DeferSealCXL()
	f.Image(fec)
}

// SealRXL finalizes an RXL flit eagerly: DeferSealRXL, then Image. The
// header FSN field carries only AckNum (or zero) under RXL; seq never
// appears on the wire.
func (f *Flit) SealRXL(seq uint16, fec *rs.Interleaved) {
	f.DeferSealRXL(seq)
	f.Image(fec)
}

// DeferSealCXL records plain-CRC seal semantics and marks the flit clean
// without computing the CRC or FEC bytes: as long as the flit stays clean
// nothing ever reads them, and Image produces them on demand the moment a
// channel or fault point needs the byte-complete image.
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

// Image is the one door into the flit's wire bytes. It materializes a
// deferred payload and seal, drops the clean mark and returns the 256-byte
// image, to read or to mutate in place: a channel strike, a switch-internal
// fault, a fault hook. From then on every integrity check runs byte-level
// on what the caller left there. fec may be nil when nothing is deferred —
// a fault hook's flit, which its wire or switch has already materialized.
func (f *Flit) Image(fec *rs.Interleaved) *[Size]byte {
	f.Materialize(fec)
	f.clean = false
	return f.raw
}

// Materialize attaches the image, generates a deferred payload into it and
// computes the CRC and FEC fields of a deferred seal, making the image
// byte-complete and bit-identical to an eager seal. Beyond attaching, it is
// a no-op when neither was deferred.
func (f *Flit) Materialize(fec *rs.Interleaved) {
	f.fillPayload()
	if !f.deferred {
		return
	}
	f.deferred = false
	if f.kind == sealISN {
		f.setCRCField(crc.ChecksumISN(f.isnSeq, f.crcInput()))
	} else {
		f.setCRCField(crc.Checksum(f.crcInput()))
	}
	fec.Encode(f.protected(), f.fecField())
}

// ReencodeFEC recomputes the FEC parity without touching the CRC. Switches
// use this on egress after their internal fault point touched the image:
// under RXL the end-to-end CRC passes through untouched while FEC is
// terminated per hop (Section 6.4). The image must be materialized.
func (f *Flit) ReencodeFEC(fec *rs.Interleaved) {
	fec.Encode(f.protected(), f.fecField())
}

// DecodeFEC runs the link-layer FEC decoder over the flit, correcting the
// protected region and parity in place where possible. A clean flit is a
// valid codeword by construction, so the decode short-circuits in O(1).
func (f *Flit) DecodeFEC(fec *rs.Interleaved) rs.Result {
	if f.clean {
		return rs.Result{Status: rs.StatusClean}
	}
	return fec.Decode(f.protected(), f.fecField())
}

// CheckCRC verifies the stored CRC against a plain checksum of
// header+payload (baseline CXL semantics). Clean flits resolve in O(1):
// the check passes exactly when the seal used plain semantics (an ISN
// seal with sequence number zero folds nothing and is byte-identical).
func (f *Flit) CheckCRC() bool {
	if f.clean {
		return f.kind == sealPlain || (f.kind == sealISN && f.isnSeq == 0)
	}
	return crc.Checksum(f.crcInput()) == f.crcField()
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
	return crc.ChecksumISN(eseq, f.crcInput()) == f.crcField()
}

// RecomputeCRC rewrites the CRC over the current header+payload (plain
// semantics). CXL switches do this on egress after terminating the
// link-layer CRC — the step that leaves switch-internal corruption
// unprotected in baseline CXL (Section 6.3). The image must be
// materialized.
func (f *Flit) RecomputeCRC() {
	f.setCRCField(crc.Checksum(f.crcInput()))
}

// FEC is the flit FEC every hop terminates: the spec geometry for 256B
// flits, 3-way interleaved with 2 parity symbols per way over the
// 250-byte protected region. The codec is immutable, so every link,
// switch and fabric, on any goroutine, shares this one.
var FEC = NewFEC()

// NewFEC builds the spec FEC geometry for 256B flits: a codec equal to
// FEC.
func NewFEC() *rs.Interleaved {
	return rs.MustNewInterleaved(ProtectedSize)
}
