package flit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/crc"
)

// clone returns an independent copy of f, unpooled: a plain copy of a
// Flit shares its image.
func clone(f *Flit) *Flit {
	g := *f
	g.home = nil
	if f.raw != nil {
		img := *f.raw
		g.raw = &img
	}
	return &g
}

func TestGeometry(t *testing.T) {
	if HeaderSize+PayloadSize+CRCSize+FECSize != Size {
		t.Fatal("flit regions do not sum to 256")
	}
	if ProtectedSize != 250 {
		t.Fatalf("protected region %d, want 250", ProtectedSize)
	}
}

func TestHeaderPackUnpackRoundTrip(t *testing.T) {
	prop := func(fsn uint16, cmd, typ uint8) bool {
		h := Header{FSN: fsn & FSNMask, Cmd: ReplayCmd(cmd & 3), Type: Type(typ & 0xF)}
		return UnpackHeader(h.Pack()) == h
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHeaderFieldsIndependent(t *testing.T) {
	// All 10 FSN bits, 2 Cmd bits and 4 Type bits must survive exactly.
	for fsn := uint16(0); fsn < 1024; fsn += 37 {
		for cmd := 0; cmd < 4; cmd++ {
			for typ := 0; typ < 16; typ++ {
				h := Header{FSN: fsn, Cmd: ReplayCmd(cmd), Type: Type(typ)}
				got := UnpackHeader(h.Pack())
				if got != h {
					t.Fatalf("round trip %+v -> %+v", h, got)
				}
			}
		}
	}
}

func TestHeaderFSNMasked(t *testing.T) {
	h := Header{FSN: 0xFFFF}
	got := UnpackHeader(h.Pack())
	if got.FSN != FSNMask {
		t.Fatalf("FSN not masked: %#x", got.FSN)
	}
}

func TestSealCXLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fec := NewFEC()
	f := &Flit{}
	f.SetHeader(Header{FSN: 5, Cmd: CmdSeq, Type: TypeData})
	rng.Read(f.Payload())
	f.SealCXL(fec)

	if res := f.DecodeFEC(fec); res.Status.String() != "clean" {
		t.Fatalf("fresh flit FEC: %v", res.Status)
	}
	if !f.CheckCRC() {
		t.Fatal("fresh flit CRC failed")
	}
	h := f.Header()
	if h.FSN != 5 || h.Cmd != CmdSeq || h.Type != TypeData {
		t.Fatalf("header mangled: %+v", h)
	}
}

func TestSealRXLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fec := NewFEC()
	f := &Flit{}
	f.SetHeader(Header{FSN: 0, Cmd: CmdSeq, Type: TypeData})
	rng.Read(f.Payload())
	f.SealRXL(123, fec)

	if res := f.DecodeFEC(fec); res.Status.String() != "clean" {
		t.Fatalf("fresh RXL flit FEC: %v", res.Status)
	}
	if !f.CheckCRCISN(123) {
		t.Fatal("RXL CRC with correct ESeq failed")
	}
	// Every wrong expected sequence number must fail: the ISN guarantee.
	for eseq := uint16(0); eseq < 1024; eseq++ {
		if eseq == 123 {
			continue
		}
		if f.CheckCRCISN(eseq) {
			t.Fatalf("RXL CRC passed with wrong ESeq %d", eseq)
		}
	}
	// Plain CRC check must also fail (seq folded in).
	if f.CheckCRC() {
		t.Fatal("plain CRC passed on ISN-sealed flit")
	}
}

func TestFECCorrectsFlitBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fec := NewFEC()
	f := &Flit{}
	rng.Read(f.Payload())
	f.SetHeader(Header{FSN: 9, Cmd: CmdSeq, Type: TypeData})
	f.SealCXL(fec)
	want := *f.Image(nil)

	// 3-byte bursts anywhere in the 256B wire image are corrected.
	for start := 0; start <= Size-3; start += 7 {
		g := clone(f)
		for i := 0; i < 3; i++ {
			g.Image(nil)[start+i] ^= byte(rng.Intn(255) + 1)
		}
		res := g.DecodeFEC(fec)
		if res.Status.String() == "uncorrectable" {
			t.Fatalf("3-byte burst at %d uncorrectable", start)
		}
		if *g.Image(nil) != want {
			t.Fatalf("3-byte burst at %d: wrong correction", start)
		}
		if !g.CheckCRC() {
			t.Fatalf("CRC after correction failed at %d", start)
		}
	}
}

func TestCRCCatchesWhatFECMiscorrects(t *testing.T) {
	// Inject 2-symbol sub-block errors until the FEC miscorrects; the CRC
	// must catch every miscorrection (Section 6.1: flits that bypass FEC
	// detection are validated by the 64-bit CRC).
	rng := rand.New(rand.NewSource(4))
	fec := NewFEC()
	f := &Flit{}
	rng.Read(f.Payload())
	f.SealCXL(fec)

	miscorrections := 0
	for trial := 0; trial < 5000 && miscorrections < 200; trial++ {
		g := clone(f)
		// Two errors in the same sub-block (positions congruent mod 3).
		p1 := rng.Intn(250)
		p2 := p1
		for p2 == p1 {
			p2 = (p1 + 3*(1+rng.Intn(80))) % 250
		}
		g.Image(nil)[p1] ^= byte(rng.Intn(255) + 1)
		g.Image(nil)[p2] ^= byte(rng.Intn(255) + 1)
		res := g.DecodeFEC(fec)
		if res.Status.String() == "uncorrectable" {
			continue
		}
		if *g.raw == *f.raw {
			continue // FEC restored the original (impossible for 2 errors, but guard)
		}
		miscorrections++
		if g.CheckCRC() {
			t.Fatalf("trial %d: CRC passed a miscorrected flit", trial)
		}
	}
	if miscorrections == 0 {
		t.Fatal("test never exercised a miscorrection; injection scheme broken")
	}
	t.Logf("CRC caught all %d FEC miscorrections", miscorrections)
}

func TestReencodeFECPreservesCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fec := NewFEC()
	f := &Flit{}
	rng.Read(f.Payload())
	f.SealRXL(77, fec)
	crcBefore := f.crcField()
	// Corrupt only the FEC parity, then re-encode (a switch hop).
	f.fecField()[2] ^= 0xFF
	f.ReencodeFEC(fec)
	if f.crcField() != crcBefore {
		t.Fatal("ReencodeFEC touched the CRC")
	}
	if res := f.DecodeFEC(fec); res.Status.String() != "clean" {
		t.Fatalf("after re-encode: %v", res.Status)
	}
	if !f.CheckCRCISN(77) {
		t.Fatal("end-to-end ISN CRC broken by FEC re-encode")
	}
}

func TestRecomputeCRCBlessesCorruption(t *testing.T) {
	// Demonstrates the baseline-CXL switch vulnerability: internal
	// corruption followed by CRC regeneration is invisible downstream.
	rng := rand.New(rand.NewSource(6))
	fec := NewFEC()
	f := &Flit{}
	rng.Read(f.Payload())
	f.SealCXL(fec)
	f.Payload()[100] ^= 0x42 // switch-internal bit flips
	f.RecomputeCRC()         // CXL egress port re-generates link CRC
	f.ReencodeFEC(fec)
	if !f.CheckCRC() {
		t.Fatal("regenerated CRC should validate the corrupted flit")
	}
}

func TestPathPass(t *testing.T) {
	f := &Flit{}
	if f.TakePathPass() {
		t.Fatal("fresh flit held a pass")
	}
	f.SetPathPass(2)
	if f.pass != 2 {
		t.Fatalf("pass = %d", f.pass)
	}
	g := *f
	for i := 0; i < 2; i++ {
		if !f.TakePathPass() || !g.TakePathPass() {
			t.Fatalf("crossing %d: pass not honored", i)
		}
	}
	if f.TakePathPass() || g.TakePathPass() {
		t.Fatal("pass outlived its granted crossings")
	}
}

func TestPathPassRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Flit{}).SetPathPass(256)
}

func TestReplayCmdStrings(t *testing.T) {
	cases := map[ReplayCmd]string{
		CmdSeq: "SEQ", CmdAck: "ACK", CmdNakGoBackN: "NAK-GBN", CmdNakSingle: "NAK-1",
	}
	for cmd, want := range cases {
		if cmd.String() != want {
			t.Errorf("%d.String() = %q, want %q", cmd, cmd.String(), want)
		}
	}
	if ReplayCmd(9).String() != "ReplayCmd(9)" {
		t.Error("unknown cmd string")
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[Type]string{TypeData: "DATA", TypeAck: "ACK", TypeNak: "NAK", TypeIdle: "IDLE"}
	for typ, want := range cases {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if Type(9).String() != "Type(9)" {
		t.Error("unknown type string")
	}
}

func BenchmarkSealCXL(b *testing.B) {
	fec := NewFEC()
	f := &Flit{}
	b.SetBytes(Size)
	for i := 0; i < b.N; i++ {
		f.SealCXL(fec)
	}
}

func BenchmarkSealRXL(b *testing.B) {
	fec := NewFEC()
	f := &Flit{}
	b.SetBytes(Size)
	for i := 0; i < b.N; i++ {
		f.SealRXL(uint16(i), fec)
	}
}

func BenchmarkDecodeFECClean(b *testing.B) {
	fec := NewFEC()
	f := &Flit{}
	f.SealCXL(fec)
	b.SetBytes(Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.DecodeFEC(fec)
	}
}

func BenchmarkCheckCRCISN(b *testing.B) {
	fec := NewFEC()
	f := &Flit{}
	f.SealRXL(1, fec)
	b.SetBytes(Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CheckCRCISN(1)
	}
}

// TestCleanVerdictsMatchByteLevelVerify is the verify-skip half of the
// fast-path differential contract: every O(1) answer a clean flit gives
// (CheckCRC, CheckCRCISN, DecodeFEC short-circuits) must agree with the
// pure byte-level verifiers — a full crc.Checksum and crc.ChecksumISN
// compared with the CRC field, and the syndrome-only rs Verify — run over
// the materialized image. It also pins
// the negative direction: one flipped bit makes every byte-level verifier
// reject what the clean mark would have blessed.
func TestCleanVerdictsMatchByteLevelVerify(t *testing.T) {
	fec := NewFEC()
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		seq  uint16
		isn  bool
	}{
		{"plain", 0, false},
		{"isn-seq0", 0, true},
		{"isn", 513, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &Flit{}
			f.SetHeader(Header{Type: TypeData})
			rng.Read(f.Payload())
			if tc.isn {
				f.DeferSealRXL(tc.seq)
			} else {
				f.DeferSealCXL()
			}
			cleanCRC, cleanISN := f.CheckCRC(), f.CheckCRCISN(tc.seq)
			f.Materialize(fec)

			if got := crc.Checksum(f.crcInput()) == f.crcField(); got != cleanCRC {
				t.Errorf("plain CRC: clean verdict %v, crc.Checksum match %v", cleanCRC, got)
			}
			if got := crc.ChecksumISN(tc.seq, f.crcInput()) == f.crcField(); got != cleanISN {
				t.Errorf("ISN CRC: clean verdict %v, crc.ChecksumISN match %v", cleanISN, got)
			}
			if !fec.Verify(f.protected(), f.fecField()) {
				t.Error("materialized clean image is not a valid RS codeword")
			}
			if wrong := tc.seq + 1; f.Clean() && crc.ChecksumISN(wrong, f.crcInput()) == f.crcField() {
				t.Error("ISN verify accepted the wrong sequence number")
			}

			f.Image(nil)[HeaderSize+17] ^= 0x40
			if f.Clean() {
				t.Error("Image left the clean mark on a mutated image")
			}
			if crc.Checksum(f.crcInput()) == f.crcField() && crc.ChecksumISN(tc.seq, f.crcInput()) == f.crcField() {
				t.Error("byte-level CRC verify blessed a corrupted image")
			}
			if fec.Verify(f.protected(), f.fecField()) {
				t.Error("syndrome-only RS verify blessed a corrupted image")
			}
		})
	}
}

// TestDeferredPayloadMaterializes: a deferred payload is invisible in the
// wire image. Materialize (and an eager seal) produce the bytes an eager
// fill would have; Route and SetRoute leave the payload deferred; Payload
// generates it; and Image on a deferred flit yields the eager seal's bytes
// and drops the clean mark.
func TestDeferredPayloadMaterializes(t *testing.T) {
	fec := NewFEC()
	fill := func(tag uint64, p []byte) {
		if len(p) != SrcRouteOffset {
			t.Fatalf("fill got %d bytes, want %d", len(p), SrcRouteOffset)
		}
		rand.New(rand.NewSource(int64(tag))).Read(p)
	}
	eager := func(seal func(*Flit)) *Flit {
		f := &Flit{}
		fill(9, f.Payload()[:SrcRouteOffset])
		f.SetRoute(3, 4)
		f.SetHeader(Header{Type: TypeData, Cmd: CmdAck, FSN: 77})
		seal(f)
		return f
	}
	deferred := func() *Flit {
		f := &Flit{}
		f.DeferPayload(9, fill)
		f.SetRoute(3, 4)
		f.SetHeader(Header{Type: TypeData, Cmd: CmdAck, FSN: 77})
		return f
	}

	want := eager(func(f *Flit) { f.SealRXL(513, fec) })
	f := deferred()
	f.DeferSealRXL(513)
	if src, dst := f.Route(); src != 3 || dst != 4 {
		t.Fatalf("Route = %d, %d; want 3, 4", src, dst)
	}
	if _, ok := f.DeferredPayload(); !ok {
		t.Fatal("Route generated the deferred payload")
	}
	f.Materialize(fec)
	if *f.raw != *want.raw {
		t.Error("materialized deferred payload differs from the eager image")
	}
	if _, ok := f.DeferredPayload(); ok {
		t.Error("payload still deferred after Materialize")
	}

	f = deferred()
	f.SealCXL(fec)
	if want := eager(func(f *Flit) { f.SealCXL(fec) }); *f.raw != *want.raw {
		t.Error("eager seal over a deferred payload differs from the eager image")
	}

	f = deferred()
	f.DeferSealRXL(513)
	if tag, ok := f.DeferredPayload(); !ok || tag != 9 {
		t.Fatalf("DeferredPayload = %d, %v; want 9, true", tag, ok)
	}
	if string(f.Payload()) != string(want.Payload()) {
		t.Error("Payload did not generate the deferred payload")
	}

	f = deferred()
	f.DeferSealRXL(513)
	if !f.Clean() {
		t.Fatal("deferred seal left the flit unmarked")
	}
	if img := f.Image(fec); *img != *want.raw {
		t.Error("Image of a deferred flit differs from the eager seal's bytes")
	}
	if f.Clean() {
		t.Error("Image left the clean mark")
	}
	if _, ok := f.DeferredPayload(); ok {
		t.Error("payload still deferred after Image")
	}
	if !f.CheckCRCISN(513) || f.CheckCRCISN(514) {
		t.Error("byte-level ISN verdicts on the image are wrong")
	}
}

// TestCleanFlitStaysAValue: a clean flit has no image. Every method it
// meets on the fast path reads and writes the value alone, and the first
// Image, Payload or Materialize attaches an image whose bytes equal the
// eager seal's, header and routing tags included, whether those were set
// before the image attached or after.
func TestCleanFlitStaysAValue(t *testing.T) {
	fec := NewFEC()
	fill := func(tag uint64, p []byte) { rand.New(rand.NewSource(int64(tag))).Read(p) }
	hdr := Header{Type: TypeData, Cmd: CmdAck, FSN: 77}
	for _, tc := range []struct {
		name             string
		deferSeal, eager func(*Flit)
	}{
		{"cxl", (*Flit).DeferSealCXL, func(f *Flit) { f.SealCXL(fec) }},
		{"rxl", func(f *Flit) { f.DeferSealRXL(513) }, func(f *Flit) { f.SealRXL(513, fec) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := &Flit{}
			fill(9, want.Payload()[:SrcRouteOffset])
			want.SetRoute(3, 4)
			want.SetHeader(hdr)
			tc.eager(want)

			var pool Pool
			value := func() *Flit {
				f := pool.Get()
				f.SetHeader(Header{FSN: 1})
				f.SetRoute(1, 2)
				f.DeferPayload(9, fill)
				tc.deferSeal(f)
				f.SetHeader(hdr)
				f.SetRoute(3, 4)
				f.SetPathPass(1)
				return f
			}
			f := value()
			for _, step := range []struct {
				name string
				run  func() bool
			}{
				{"Header", func() bool { return f.Header() == hdr }},
				{"Route", func() bool { src, dst := f.Route(); return src == 3 && dst == 4 }},
				{"DecodeFEC", func() bool { return f.DecodeFEC(fec).Status.String() == "clean" }},
				{"CheckCRC", func() bool { return f.CheckCRC() == (tc.name == "cxl") }},
				{"CheckCRCISN", func() bool { return f.CheckCRCISN(513) == (tc.name == "rxl") }},
				{"TakePathPass", f.TakePathPass},
				{"DeferredPayload", func() bool { tag, ok := f.DeferredPayload(); return ok && tag == 9 }},
			} {
				if !step.run() {
					t.Errorf("%s: wrong answer on a clean flit", step.name)
				}
				if f.raw != nil {
					t.Fatalf("%s attached an image to a clean flit", step.name)
				}
			}
			if !f.Clean() {
				t.Fatal("fast-path methods dropped the clean mark")
			}

			if img := f.Image(fec); *img != *want.raw {
				t.Error("Image: bytes differ from the eager seal's")
			}
			f = value()
			if string(f.Payload()) != string(want.Payload()) {
				t.Error("Payload: bytes differ from the eager seal's")
			}
			f.Materialize(fec)
			if *f.raw != *want.raw {
				t.Error("Payload, then Materialize: bytes differ from the eager seal's")
			}
			f = value()
			f.Materialize(fec)
			if *f.raw != *want.raw {
				t.Error("Materialize: bytes differ from the eager seal's")
			}
			if !f.Clean() || f.Header() != hdr {
				t.Error("Materialize dropped the clean mark or lost the header")
			}

			// Header and tags set after the image attached land in it.
			f = pool.Get()
			f.DeferPayload(9, fill)
			f.Payload()
			f.SetHeader(hdr)
			f.SetRoute(3, 4)
			tc.deferSeal(f)
			if src, dst := f.Route(); f.Header() != hdr || src != 3 || dst != 4 {
				t.Error("header or tags set on an attached image read back wrong")
			}
			if img := f.Image(fec); *img != *want.raw {
				t.Error("header and tags set after attaching: bytes differ from the eager seal's")
			}
		})
	}
}

// TestPoolRecycles: Release returns a flit and its image to the pool the
// flit came from, and the next Get hands the flit out with nothing left of
// its last user — no header, tags, seal, pass or deferred payload — and
// its image, once it attaches again, with a zero payload region, which
// DeferPayload's contract needs. A second Release, and a Release of an
// unpooled flit, are no-ops.
func TestPoolRecycles(t *testing.T) {
	fec := NewFEC()
	var pool Pool
	f := pool.Get()
	f.SetHeader(Header{FSN: 5, Cmd: CmdAck, Type: TypeNak})
	f.SetRoute(3, 4)
	f.DeferPayload(9, func(tag uint64, p []byte) { rand.New(rand.NewSource(int64(tag))).Read(p) })
	f.DeferSealRXL(7)
	f.SetPathPass(3)
	img := f.Image(fec)
	Release(f)
	Release(f)
	Release(&Flit{})
	if len(pool.flits) != 1 || len(pool.images) != 1 {
		t.Fatalf("pool holds %d flits and %d images after a double Release, want 1 and 1", len(pool.flits), len(pool.images))
	}

	g := pool.Get()
	if g != f {
		t.Fatal("Get did not reuse the released flit")
	}
	if g.raw != nil || g.home != &pool {
		t.Fatal("recycled flit came back with an image or without its pool")
	}
	if src, dst := g.Route(); g.Header() != (Header{}) || src != 0 || dst != 0 {
		t.Error("recycled flit kept its header or routing tags")
	}
	if _, ok := g.DeferredPayload(); ok || g.Clean() || g.kind != sealNone || g.isnSeq != 0 || g.TakePathPass() {
		t.Error("recycled flit kept its deferred payload, seal or path pass")
	}
	g.DeferPayload(1, func(_ uint64, p []byte) {
		for i, b := range p {
			if b != 0 {
				t.Fatalf("recycled image payload byte %d = %#x, want 0", i, b)
			}
		}
	})
	if g.Image(fec) != img {
		t.Error("the recycled flit did not attach the recycled image")
	}
	if len(pool.images) != 0 {
		t.Errorf("%d images left on the free list", len(pool.images))
	}
}
