package flit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/crc"
)

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
	want := f.Raw

	// 3-byte bursts anywhere in the 256B wire image are corrected.
	for start := 0; start <= Size-3; start += 7 {
		g := *f
		for i := 0; i < 3; i++ {
			g.Raw[start+i] ^= byte(rng.Intn(255) + 1)
		}
		res := g.DecodeFEC(fec)
		if res.Status.String() == "uncorrectable" {
			t.Fatalf("3-byte burst at %d uncorrectable", start)
		}
		if g.Raw != want {
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
		g := *f
		// Two errors in the same sub-block (positions congruent mod 3).
		p1 := rng.Intn(250)
		p2 := p1
		for p2 == p1 {
			p2 = (p1 + 3*(1+rng.Intn(80))) % 250
		}
		g.Raw[p1] ^= byte(rng.Intn(255) + 1)
		g.Raw[p2] ^= byte(rng.Intn(255) + 1)
		res := g.DecodeFEC(fec)
		if res.Status.String() == "uncorrectable" {
			continue
		}
		if g.Raw == f.Raw {
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
	crcBefore := f.CRCField()
	// Corrupt only the FEC parity, then re-encode (a switch hop).
	f.FECField()[2] ^= 0xFF
	f.ReencodeFEC(fec)
	if f.CRCField() != crcBefore {
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

	// Pooled recycling must not leak a pass into the next user.
	p := Get()
	p.SetPathPass(3)
	Release(p)
	if q := Get(); q.pass != 0 {
		t.Fatal("pool leaked a path pass")
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
// pure byte-level verifiers — crc.Verify, crc.VerifyISN, and the
// syndrome-only rs Verify — run over the materialized image. It also pins
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

			if got := crc.Verify(f.CRCField(), f.crcInput()); got != cleanCRC {
				t.Errorf("plain CRC: clean verdict %v, crc.Verify %v", cleanCRC, got)
			}
			if got := crc.VerifyISN(f.CRCField(), tc.seq, f.crcInput()); got != cleanISN {
				t.Errorf("ISN CRC: clean verdict %v, crc.VerifyISN %v", cleanISN, got)
			}
			if !fec.Verify(f.protected(), f.FECField()) {
				t.Error("materialized clean image is not a valid RS codeword")
			}
			if wrong := tc.seq + 1; f.Clean() && crc.VerifyISN(f.CRCField(), wrong, f.crcInput()) {
				t.Error("ISN verify accepted the wrong sequence number")
			}

			f.Payload()[17] ^= 0x40
			f.Taint()
			if crc.Verify(f.CRCField(), f.crcInput()) && crc.VerifyISN(f.CRCField(), tc.seq, f.crcInput()) {
				t.Error("byte-level CRC verify blessed a corrupted image")
			}
			if fec.Verify(f.protected(), f.FECField()) {
				t.Error("syndrome-only RS verify blessed a corrupted image")
			}
		})
	}
}
