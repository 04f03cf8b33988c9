package rs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

func TestInterleavedGeometryCXL(t *testing.T) {
	il := MustNewInterleaved(250)
	if il.DataLen() != 250 || il.ParityLen() != 6 || len(il.codes) != 3 {
		t.Fatalf("geometry: data=%d parity=%d ways=%d", il.DataLen(), il.ParityLen(), len(il.codes))
	}
	// The paper's 85/85/86 sub-blocks (83/83/84 data + 2 parity each):
	// each way leaves ~170 of the mother code's 255 positions vacant, the
	// 2/3 that gives the shortened code its detection power.
	counts := map[int]int{}
	for _, c := range il.codes {
		counts[c.n]++
	}
	if counts[85] != 2 || counts[86] != 1 {
		t.Fatalf("sub-block lengths %v, want two 85s and one 86", counts)
	}
}

func TestInterleavedValidation(t *testing.T) {
	if _, err := NewInterleaved(0); err == nil {
		t.Error("total=0 should fail")
	}
	if _, err := NewInterleaved(2); err == nil {
		t.Error("empty way should fail")
	}
	// Oversized sub-block codeword.
	if _, err := NewInterleaved(900); err == nil {
		t.Error("sub-block over 255 should fail")
	}
	// The widest bank: 253 data + 2 parity symbols fill every way's
	// mother code; one more byte overflows the first way.
	if _, err := NewInterleaved(3 * 253); err != nil {
		t.Errorf("total=759 should succeed: %v", err)
	}
	if _, err := NewInterleaved(3*253 + 1); err == nil {
		t.Error("total=760 should fail")
	}
}

func TestInterleavedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	il := MustNewInterleaved(250)
	for trial := 0; trial < 100; trial++ {
		data := randData(rng, 250)
		parity := make([]byte, 6)
		il.Encode(data, parity)
		res := il.Decode(data, parity)
		if res.Status != StatusClean {
			t.Fatalf("fresh interleaved codeword: %v", res.Status)
		}
	}
}

// TestInterleavedBurst3AlwaysCorrected verifies the headline FEC capability:
// any burst confined to 3 consecutive wire bytes is always corrected by the
// 3-way interleaved SSC (Section 2.5 / 6.4).
func TestInterleavedBurst3AlwaysCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	il := MustNewInterleaved(250)
	data := randData(rng, 250)
	parity := make([]byte, 6)
	il.Encode(data, parity)
	orig := append([]byte(nil), data...)
	origP := append([]byte(nil), parity...)

	wire := func() []byte { return append(append([]byte(nil), data...), parity...) }
	restore := func(w []byte) {
		copy(data, w[:250])
		copy(parity, w[250:])
	}

	for start := 0; start <= 256-3; start++ {
		for trial := 0; trial < 5; trial++ {
			w := wire()
			for i := 0; i < 3; i++ {
				w[start+i] ^= byte(rng.Intn(255) + 1)
			}
			restore(w)
			res := il.Decode(data, parity)
			if res.Status != StatusCorrected {
				t.Fatalf("burst at %d not corrected: %v", start, res.Status)
			}
			if !bytes.Equal(data, orig) || !bytes.Equal(parity, origP) {
				t.Fatalf("burst at %d: wrong correction", start)
			}
			copy(data, orig)
			copy(parity, origP)
		}
	}
}

// TestInterleavedBurstDetectionRates reproduces the paper's burst detection
// fractions (Section 2.5): 4-byte bursts detected ~2/3 of the time, 5-byte
// ~8/9, 6-byte ~26/27 — because an L-byte burst puts 2 symbol errors in
// (L-3) sub-blocks and all of them must miscorrect for the flit to escape.
func TestInterleavedBurstDetectionRates(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	il := MustNewInterleaved(250)

	cases := []struct {
		burst  int
		want   float64
		slack  float64
		trials int
	}{
		{4, 2.0 / 3.0, 0.04, 8000},
		{5, 8.0 / 9.0, 0.03, 8000},
		{6, 26.0 / 27.0, 0.02, 8000},
	}
	for _, tc := range cases {
		detected := 0
		for trial := 0; trial < tc.trials; trial++ {
			data := randData(rng, 250)
			parity := make([]byte, 6)
			il.Encode(data, parity)
			w := append(append([]byte(nil), data...), parity...)
			start := rng.Intn(256 - tc.burst)
			for i := 0; i < tc.burst; i++ {
				w[start+i] ^= byte(rng.Intn(255) + 1)
			}
			copy(data, w[:250])
			copy(parity, w[250:])
			if il.Decode(data, parity).Status == StatusUncorrectable {
				detected++
			}
		}
		rate := float64(detected) / float64(tc.trials)
		if rate < tc.want-tc.slack || rate > tc.want+tc.slack {
			t.Errorf("burst=%d: detection rate %.4f, want %.4f±%.2f", tc.burst, rate, tc.want, tc.slack)
		} else {
			t.Logf("burst=%d: detection rate %.4f (paper: %.4f)", tc.burst, rate, tc.want)
		}
	}
}

func TestInterleavedLengthPanics(t *testing.T) {
	il := MustNewInterleaved(250)
	for _, fn := range []func(){
		func() { il.Encode(make([]byte, 249), make([]byte, 6)) },
		func() { il.Encode(make([]byte, 250), make([]byte, 5)) },
		func() { il.Decode(make([]byte, 249), make([]byte, 6)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestInterleavedSharedAcrossGoroutines pins the codec's immutability:
// goroutines sharing one Interleaved, each on its own buffers, get every
// call's right answer. Under -race a write to the codec fails it on
// either build, since the purego build runs every call through the
// per-way reference loops and the default build still does for
// VerifyReference.
func TestInterleavedSharedAcrossGoroutines(t *testing.T) {
	il := MustNewInterleaved(250)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			parity := make([]byte, 6)
			for trial := 0; trial < 200; trial++ {
				data := randData(rng, 250)
				il.Encode(data, parity)
				if !il.Verify(data, parity) || !il.VerifyReference(data, parity) {
					t.Errorf("goroutine %d trial %d: fresh codeword fails verification", seed, trial)
					return
				}
				orig := append([]byte(nil), data...)
				data[rng.Intn(250)] ^= byte(rng.Intn(255) + 1)
				if res := il.Decode(data, parity); res.Status != StatusCorrected || !bytes.Equal(data, orig) {
					t.Errorf("goroutine %d trial %d: 1-symbol error decodes %v", seed, trial, res.Status)
					return
				}
			}
		}(int64(20 + g))
	}
	wg.Wait()
}

func TestMustNewInterleavedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewInterleaved with bad params did not panic")
		}
	}()
	MustNewInterleaved(0)
}

func BenchmarkInterleavedEncodeFlit(b *testing.B) {
	il := MustNewInterleaved(250)
	data := make([]byte, 250)
	parity := make([]byte, 6)
	b.SetBytes(250)
	for i := 0; i < b.N; i++ {
		il.Encode(data, parity)
	}
}

func BenchmarkInterleavedDecodeClean(b *testing.B) {
	il := MustNewInterleaved(250)
	data := make([]byte, 250)
	parity := make([]byte, 6)
	il.Encode(data, parity)
	b.SetBytes(250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		il.Decode(data, parity)
	}
}

func BenchmarkFECBurstDetection(b *testing.B) {
	// Experiment E14 harness: throughput of decode under 4-byte bursts.
	rng := rand.New(rand.NewSource(14))
	il := MustNewInterleaved(250)
	data := make([]byte, 250)
	parity := make([]byte, 6)
	il.Encode(data, parity)
	clean := append([]byte(nil), data...)
	cleanP := append([]byte(nil), parity...)
	b.SetBytes(250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(data, clean)
		copy(parity, cleanP)
		start := rng.Intn(246)
		for j := 0; j < 4; j++ {
			data[start+j] ^= 0xA5
		}
		il.Decode(data, parity)
	}
}
