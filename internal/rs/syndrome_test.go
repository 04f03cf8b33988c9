package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// dataLens spans the SSC family: the flit's 84- and 83-symbol sub-blocks
// and the degenerate odd and even sizes.
var dataLens = []int{84, 83, 1, 2}

// corrupt XORs e random symbol errors into the codeword.
func corrupt(rng *rand.Rand, data, parity []byte, e int) {
	n := len(data) + len(parity)
	for i := 0; i < e; i++ {
		p := rng.Intn(n)
		m := byte(1 + rng.Intn(255))
		if p < len(data) {
			data[p] ^= m
		} else {
			parity[p-len(data)] ^= m
		}
	}
}

// TestSyndromesVectoredMatchesReference pins the syndromes the remainder
// kernel reads off each way's residue to the byte-level reference, lane by
// lane, across way lengths, error weights (clean through beyond t), and
// random words. An image of 3k bytes gives every way k data symbols.
func TestSyndromesVectoredMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range dataLens {
		il := MustNewInterleaved(ways * k)
		data := make([]byte, ways*k)
		parity := make([]byte, ways*nparity)
		way, wayParity := make([]byte, k), make([]byte, nparity)
		for trial := 0; trial < 200; trial++ {
			rng.Read(data)
			il.Encode(data, parity)
			corrupt(rng, data, parity, rng.Intn(ways*(nparity+2)))
			r := il.residues(data, parity)
			for w := range r {
				for i := range way {
					way[i] = data[i*ways+w]
				}
				for x, p := range parity {
					if il.parityWay[x] == w {
						wayParity[il.parityIdx[x]] = p
					}
				}
				s0, s1 := residueSyndromes(r[w])
				if got, want := uint64(s0)|uint64(s1)<<8, syndromesRef(way, wayParity); got != want {
					t.Fatalf("k=%d way %d: residue syndromes %#04x, ref %#04x", k, w, got, want)
				}
				if got, want := r[w] == 0, il.codes[w].VerifyReference(way, wayParity); got != want {
					t.Fatalf("k=%d way %d: zero residue %v != VerifyReference %v", k, w, got, want)
				}
			}
		}
	}
}

// TestVerifyAllocFree: the FEC entry points must not allocate on either
// path — every router hop, endpoint and Monte-Carlo trial calls them. The
// interleaved calls run on the flit geometry, on a clean image, on one
// with a symbol error in every way and on an uncorrectable one.
func TestVerifyAllocFree(t *testing.T) {
	c := MustNew(84)
	data := make([]byte, 84)
	parity := make([]byte, 2)
	c.Encode(data, parity)
	if n := testing.AllocsPerRun(100, func() { c.VerifyReference(data, parity) }); n != 0 {
		t.Errorf("VerifyReference allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.decode(data, parity) }); n != 0 {
		t.Errorf("decode (clean) allocates %v per run", n)
	}

	il := MustNewInterleaved(250)
	clean := make([]byte, 256)
	rand.New(rand.NewSource(32)).Read(clean[:250])
	il.Encode(clean[:250], clean[250:])
	struck := append([]byte(nil), clean...)
	struck[7] ^= 0x11   // way 1
	struck[120] ^= 0x22 // way 0
	struck[254] ^= 0x33 // parity slot 4: way (250+4)%3 = 2
	twice := append([]byte(nil), clean...)
	twice[3] ^= 0x44 // two errors in way 0: uncorrectable
	twice[6] ^= 0x55
	img := make([]byte, 256)
	d, p := img[:250], img[250:]
	for _, tc := range []struct {
		name string
		src  []byte
	}{{"clean", clean}, {"one error per way", struck}, {"two errors in one way", twice}} {
		for _, call := range []struct {
			name string
			fn   func()
		}{
			{"Encode", func() { il.Encode(d, p) }},
			{"Verify", func() { il.Verify(d, p) }},
			{"VerifyReference", func() { il.VerifyReference(d, p) }},
			{"Decode", func() { il.Decode(d, p) }},
		} {
			n := testing.AllocsPerRun(100, func() {
				copy(img, tc.src)
				call.fn()
			})
			if n != 0 {
				t.Errorf("Interleaved.%s (%s) allocates %v per run", call.name, tc.name, n)
			}
		}
	}
	copy(img, struck)
	if res := il.Decode(d, p); res.Status != StatusCorrected || res.Corrected != 3 || !bytes.Equal(img, clean) {
		t.Fatalf("one error per way: decode %+v, restored %v", res, bytes.Equal(img, clean))
	}
}

// FuzzVerifyDecode drives random error patterns (including weights beyond
// t) through the per-way decoder, asserting the decode outcome is
// self-consistent: a corrected word must re-verify clean on the reference
// loop, with exactly one symbol corrected. The CI kernel leg replays the
// committed corpus under both the default and purego builds.
func FuzzVerifyDecode(f *testing.F) {
	f.Add(uint8(84), []byte{}, []byte{})
	f.Add(uint8(84), []byte{1, 2, 3}, []byte{0, 1, 40, 2, 85, 3})
	f.Add(uint8(20), []byte{9, 9, 9, 9}, []byte{5, 7, 11, 13, 17, 19, 23, 29})
	f.Add(uint8(50), []byte{0xFF}, []byte{57, 0xAA})
	f.Fuzz(func(t *testing.T, kRaw uint8, seed, errs []byte) {
		k := 1 + int(kRaw)%100
		c := MustNew(k)
		data := make([]byte, k)
		for i := range data {
			if len(seed) > 0 {
				data[i] = seed[i%len(seed)]
			}
		}
		parity := make([]byte, nparity)
		c.Encode(data, parity)
		// errs drives the injected pattern as (position, magnitude)
		// pairs — possibly far more than t of them.
		for i := 0; i+1 < len(errs); i += 2 {
			p := int(errs[i]) % (k + nparity)
			m := errs[i+1]
			if p < k {
				data[p] ^= m
			} else {
				parity[p-k] ^= m
			}
		}
		res := c.decode(data, parity)
		switch res.Status {
		case StatusClean:
			if !c.VerifyReference(data, parity) {
				t.Fatal("StatusClean but reference verify fails")
			}
		case StatusCorrected:
			if res.Corrected != 1 {
				t.Fatalf("corrected %d symbols, t = 1", res.Corrected)
			}
			if !c.VerifyReference(data, parity) {
				t.Fatal("StatusCorrected but corrected word is not a codeword")
			}
		case StatusUncorrectable:
			// Word must be left unusable-but-intact; nothing to assert
			// beyond not panicking.
		}
	})
}
