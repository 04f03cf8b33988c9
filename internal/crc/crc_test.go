package crc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 240, 242, 1000} {
		for trial := 0; trial < 20; trial++ {
			data := make([]byte, n)
			rng.Read(data)
			ref := UpdateBitwise(0, data)
			if got := UpdateSlicing16(0, data); got != ref {
				t.Fatalf("n=%d: slicing-16 %#x != bitwise %#x", n, got, ref)
			}
			if got := Update(0, data); got != ref {
				t.Fatalf("n=%d: dispatched %#x != bitwise %#x", n, got, ref)
			}
		}
	}
}

func TestEnginesAgreeProperty(t *testing.T) {
	prop := func(data []byte, init uint64) bool {
		ref := UpdateBitwise(init, data)
		return UpdateSlicing16(init, data) == ref &&
			Update(init, data) == ref
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChecksumSegmentsEqualsContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	whole := make([]byte, 242)
	rng.Read(whole)
	want := Checksum(whole)
	if got := Checksum(whole[:2], whole[2:]); got != want {
		t.Fatalf("segments: %#x != %#x", got, want)
	}
	if got := Checksum(whole[:100], whole[100:100], whole[100:]); got != want {
		t.Fatalf("empty mid-segment: %#x != %#x", got, want)
	}
}

func TestChecksumEmptyIsZero(t *testing.T) {
	if Checksum() != 0 {
		t.Error("Checksum() != 0")
	}
	if Checksum(nil) != 0 {
		t.Error("Checksum(nil) != 0")
	}
}

// CRC with zero init and no final XOR is linear over GF(2): the checksum of
// an XOR of equal-length messages is the XOR of their checksums. This is the
// algebraic fact that makes the ISN fold analyzable.
func TestLinearity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]byte, 242)
		b := make([]byte, 242)
		rng.Read(a)
		rng.Read(b)
		x := make([]byte, 242)
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		return Checksum(x) == (Checksum(a) ^ Checksum(b))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBurstDetection verifies the guaranteed detection of all burst errors
// up to 64 bits (Section 4.1: "burst errors up to 64 bits long with complete
// reliability"). Every burst start position in a flit-sized message is
// exercised with random burst contents up to 64 bits wide.
func TestBurstDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	msg := make([]byte, 242) // header + payload of a 256B flit
	rng.Read(msg)
	clean := Checksum(msg)

	bitLen := len(msg) * 8
	for start := 0; start < bitLen; start += 1 {
		width := 1 + rng.Intn(64)
		if start+width > bitLen {
			width = bitLen - start
		}
		corrupted := append([]byte(nil), msg...)
		// A burst of `width` bits starting at `start`: first and last bit
		// flipped (defining the burst extent), interior random.
		flip := func(bit int) {
			corrupted[bit/8] ^= 1 << (7 - bit%8)
		}
		flip(start)
		for b := start + 1; b < start+width-1; b++ {
			if rng.Intn(2) == 1 {
				flip(b)
			}
		}
		if width > 1 {
			flip(start + width - 1)
		}
		if Checksum(corrupted) == clean {
			t.Fatalf("undetected %d-bit burst at bit %d", width, start)
		}
	}
}

// TestRandomSparseErrorsDetected samples 1..4-bit random error patterns
// (Section 4.1: the 8B CRC detects up to four random bit errors).
func TestRandomSparseErrorsDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	msg := make([]byte, 242)
	rng.Read(msg)
	clean := Checksum(msg)
	bitLen := len(msg) * 8
	for nerr := 1; nerr <= 4; nerr++ {
		for trial := 0; trial < 5000; trial++ {
			corrupted := append([]byte(nil), msg...)
			seen := map[int]bool{}
			for len(seen) < nerr {
				seen[rng.Intn(bitLen)] = true
			}
			for bit := range seen {
				corrupted[bit/8] ^= 1 << (7 - bit%8)
			}
			if Checksum(corrupted) == clean {
				t.Fatalf("undetected %d-bit error pattern", nerr)
			}
		}
	}
}

// TestISNSequenceMismatchAlwaysDetected is the core ISN property: for any
// payload, two checksums computed with distinct 10-bit sequence numbers
// always differ, so a receiver decoding with ESeqNum != SeqNum is guaranteed
// to see a CRC mismatch (Section 5).
func TestISNSequenceMismatchAlwaysDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	msg := make([]byte, 242)
	rng.Read(msg)
	sums := make(map[uint64]uint16)
	for seq := uint16(0); seq <= SeqMask; seq++ {
		sum := ChecksumISN(seq, msg)
		if prev, dup := sums[sum]; dup {
			t.Fatalf("seq %d and %d collide: %#x", prev, seq, sum)
		}
		sums[sum] = seq
	}
	if len(sums) != 1024 {
		t.Fatalf("got %d distinct checksums, want 1024", len(sums))
	}
}

// The fold is equivalent to XORing the sequence bits into the message tail.
func TestISNFoldEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	msg := make([]byte, 242)
	rng.Read(msg)
	for _, seq := range []uint16{0, 1, 2, 255, 256, 512, 1023} {
		folded := append([]byte(nil), msg...)
		folded[240] ^= byte(seq >> 8)
		folded[241] ^= byte(seq)
		want := Checksum(folded)
		if got := ChecksumISN(seq, msg); got != want {
			t.Fatalf("seq=%d: fold %#x != manual %#x", seq, got, want)
		}
	}
}

// The fold must work when the final two bytes straddle a segment boundary.
func TestISNSegmentBoundaryStraddle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	msg := make([]byte, 50)
	rng.Read(msg)
	for _, seq := range []uint16{0, 77, 1023} {
		want := ChecksumISN(seq, msg)
		for _, cut := range []int{48, 49, 50, 1, 2} {
			got := ChecksumISN(seq, msg[:cut], msg[cut:])
			if got != want {
				t.Fatalf("seq=%d cut=%d: %#x != %#x", seq, cut, got, want)
			}
		}
		// Three-way split with a tiny tail segment.
		if got := ChecksumISN(seq, msg[:10], msg[10:49], msg[49:]); got != want {
			t.Fatalf("seq=%d 3-way: mismatch", seq)
		}
	}
}

func TestISNSeqMaskedToTenBits(t *testing.T) {
	msg := make([]byte, 16)
	if ChecksumISN(0, msg) != ChecksumISN(1024, msg) {
		t.Error("seq 1024 should alias to 0 (10-bit wrap)")
	}
}

func TestISNSeqZeroEqualsPlainChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	msg := make([]byte, 242)
	rng.Read(msg)
	if ChecksumISN(0, msg) != Checksum(msg) {
		t.Error("ChecksumISN(0, msg) should equal Checksum(msg): fold of zero is identity")
	}
}

func TestISNTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 1-byte message")
		}
	}()
	ChecksumISN(1, []byte{0x42})
}

// A payload error combined with the right sequence skew could in principle
// cancel — but only if the payload error equals the seq fold difference in
// the last two bytes. Verify detection when both payload and seq differ
// elsewhere.
func TestISNJointPayloadSeqErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	msg := make([]byte, 242)
	rng.Read(msg)
	for trial := 0; trial < 2000; trial++ {
		seqTx := uint16(rng.Intn(1024))
		seqRx := uint16(rng.Intn(1024))
		corrupted := append([]byte(nil), msg...)
		// Flip a random bit outside the folded tail.
		bit := rng.Intn(240 * 8)
		corrupted[bit/8] ^= 1 << (7 - bit%8)
		if ChecksumISN(seqTx, msg) == ChecksumISN(seqRx, corrupted) {
			t.Fatalf("undetected joint error: seqTx=%d seqRx=%d bit=%d", seqTx, seqRx, bit)
		}
	}
}

// Incremental updates through block-size boundaries must agree with the
// one-shot computation for every split point — the contract Checksum's
// segment loop relies on now that Update mixes 16-, 8-, and 1-byte steps.
func TestUpdateIncrementalSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 242)
	rng.Read(data)
	want := UpdateBitwise(0, data)
	for cut := 0; cut <= len(data); cut++ {
		if got := Update(Update(0, data[:cut]), data[cut:]); got != want {
			t.Fatalf("cut=%d: incremental %#x != one-shot %#x", cut, got, want)
		}
	}
}

func BenchmarkChecksumCLMULFlit(b *testing.B) {
	if !UsingCLMUL() {
		b.Skip("no CLMUL on this host/build")
	}
	data := make([]byte, 242)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		sink = Update(0, data)
	}
}

func BenchmarkChecksumSlicing16Flit(b *testing.B) {
	data := make([]byte, 242)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		sink = UpdateSlicing16(0, data)
	}
}

func BenchmarkChecksumBitwiseFlit(b *testing.B) {
	data := make([]byte, 242)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		sink = UpdateBitwise(0, data)
	}
}

func BenchmarkChecksumISNFlit(b *testing.B) {
	data := make([]byte, 242)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		sink = ChecksumISN(uint16(i), data)
	}
}

var sink uint64
