package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randData(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(254); err == nil {
		t.Error("codeword longer than 255 should fail")
	}
	c, err := New(83)
	if err != nil {
		t.Fatal(err)
	}
	if c.k != 83 || c.n != 85 {
		t.Errorf("geometry wrong: k=%d n=%d", c.k, c.n)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad params did not panic")
		}
	}()
	MustNew(0)
}

func TestEncodeProducesValidCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 10, 83, 84, 200} {
		c := MustNew(k)
		for trial := 0; trial < 50; trial++ {
			data := randData(rng, k)
			parity := make([]byte, 2)
			c.Encode(data, parity)
			res := c.decode(data, parity)
			if res.Status != StatusClean {
				t.Fatalf("k=%d: fresh codeword decodes as %v", k, res.Status)
			}
		}
	}
}

func TestSingleErrorCorrectedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := MustNew(83)
	data := randData(rng, 83)
	parity := make([]byte, 2)
	c.Encode(data, parity)
	orig := append([]byte(nil), data...)
	origP := append([]byte(nil), parity...)

	// Every byte position (data and parity), every of a few magnitudes.
	for pos := 0; pos < 85; pos++ {
		for _, mag := range []byte{1, 0x80, 0xFF} {
			d := append([]byte(nil), orig...)
			p := append([]byte(nil), origP...)
			if pos < 83 {
				d[pos] ^= mag
			} else {
				p[pos-83] ^= mag
			}
			res := c.decode(d, p)
			if res.Status != StatusCorrected || res.Corrected != 1 {
				t.Fatalf("pos=%d mag=%#x: got %+v", pos, mag, res)
			}
			if !bytes.Equal(d, orig) || !bytes.Equal(p, origP) {
				t.Fatalf("pos=%d mag=%#x: correction wrong", pos, mag)
			}
		}
	}
}

func TestSingleErrorProperty(t *testing.T) {
	c := MustNew(40)
	rng := rand.New(rand.NewSource(3))
	prop := func(seed int64, posRaw, magRaw byte) bool {
		r := rand.New(rand.NewSource(seed))
		data := randData(r, 40)
		parity := make([]byte, 2)
		c.Encode(data, parity)
		orig := append([]byte(nil), data...)
		pos := int(posRaw) % 40
		mag := magRaw
		if mag == 0 {
			mag = 1
		}
		data[pos] ^= mag
		res := c.decode(data, parity)
		return res.Status == StatusCorrected && bytes.Equal(data, orig)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestDoubleErrorNeverSilentlyKept verifies that with two symbol errors the
// 2-parity decoder either reports uncorrectable or "corrects" to a different
// (wrong) codeword — it must never return the original data while claiming
// StatusClean.
func TestDoubleErrorNeverFalselyClean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := MustNew(83)
	for trial := 0; trial < 2000; trial++ {
		data := randData(rng, 83)
		parity := make([]byte, 2)
		c.Encode(data, parity)
		p1 := rng.Intn(83)
		p2 := rng.Intn(83)
		for p2 == p1 {
			p2 = rng.Intn(83)
		}
		data[p1] ^= byte(rng.Intn(255) + 1)
		data[p2] ^= byte(rng.Intn(255) + 1)
		res := c.decode(data, parity)
		if res.Status == StatusClean {
			t.Fatalf("trial %d: two errors reported clean", trial)
		}
	}
}

// TestShortenedDetectionRates reproduces the key quantitative claim of
// Section 2.5: a shortened 85-of-255 code detects roughly two thirds of
// 2-symbol (uncorrectable) error patterns, because the implied single-error
// location is roughly uniform over the 255-position mother code and only 85
// positions are occupied.
func TestShortenedDetectionRates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := MustNew(83)
	const trials = 30000
	detected := 0
	for trial := 0; trial < trials; trial++ {
		data := randData(rng, 83)
		parity := make([]byte, 2)
		c.Encode(data, parity)
		p1 := rng.Intn(85)
		p2 := rng.Intn(85)
		for p2 == p1 {
			p2 = rng.Intn(85)
		}
		inject := func(p int, mag byte) {
			if p < 83 {
				data[p] ^= mag
			} else {
				parity[p-83] ^= mag
			}
		}
		inject(p1, byte(rng.Intn(255)+1))
		inject(p2, byte(rng.Intn(255)+1))
		if c.decode(data, parity).Status == StatusUncorrectable {
			detected++
		}
	}
	rate := float64(detected) / trials
	// Expected ~ 1 - 85/255 = 2/3, plus a small boost from the
	// S0==0-or-S1==0 patterns. Allow a generous statistical band.
	if rate < 0.63 || rate > 0.72 {
		t.Fatalf("2-error detection rate = %.4f, want ~0.667", rate)
	}
	t.Logf("2-symbol-error detection rate: %.4f (paper: ~2/3)", rate)
}

func TestZeroSyndromePairDetected(t *testing.T) {
	// Craft a 2-error pattern with equal magnitudes at two positions:
	// S0 = e ^ e = 0 but S1 != 0 -> must be flagged uncorrectable by the
	// "one zero syndrome" rule rather than crash in Log(0).
	c := MustNew(10)
	data := make([]byte, 10)
	parity := make([]byte, 2)
	c.Encode(data, parity)
	data[2] ^= 0x41
	data[7] ^= 0x41
	res := c.decode(data, parity)
	if res.Status != StatusUncorrectable {
		t.Fatalf("equal-magnitude double error: got %v, want uncorrectable", res.Status)
	}
}

func TestDecodeLengthMismatchPanics(t *testing.T) {
	c := MustNew(10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad length")
		}
	}()
	c.decode(make([]byte, 9), make([]byte, 2))
}

func TestEncodeLengthMismatchPanics(t *testing.T) {
	c := MustNew(10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad length")
		}
	}()
	c.Encode(make([]byte, 10), make([]byte, 3))
}

func BenchmarkEncodeSSC83(b *testing.B) {
	c := MustNew(83)
	data := make([]byte, 83)
	parity := make([]byte, 2)
	b.SetBytes(83)
	for i := 0; i < b.N; i++ {
		c.Encode(data, parity)
	}
}

func BenchmarkDecodeSSCClean(b *testing.B) {
	c := MustNew(83)
	data := make([]byte, 83)
	parity := make([]byte, 2)
	c.Encode(data, parity)
	b.SetBytes(83)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.decode(data, parity)
	}
}

func BenchmarkDecodeSSCOneError(b *testing.B) {
	c := MustNew(83)
	data := make([]byte, 83)
	parity := make([]byte, 2)
	c.Encode(data, parity)
	b.SetBytes(83)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[i%83] ^= 0x5A
		c.decode(data, parity)
	}
}
