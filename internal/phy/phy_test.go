package phy

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	buckets := make([]int, 16)
	for i := 0; i < n; i++ {
		buckets[r.Uint64()>>60]++
	}
	want := float64(n) / 16
	for i, c := range buckets {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: %d (want ~%.0f)", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(8)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNonzeroByte(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 10000; i++ {
		if r.NonzeroByte() == 0 {
			t.Fatal("NonzeroByte returned 0")
		}
	}
}

func TestFill(t *testing.T) {
	r := NewRNG(11)
	for _, n := range []int{0, 1, 7, 8, 9, 255} {
		buf := make([]byte, n)
		r.Fill(buf)
		if n >= 32 {
			zero := 0
			for _, b := range buf {
				if b == 0 {
					zero++
				}
			}
			if zero > n/4 {
				t.Fatalf("Fill produced %d/%d zero bytes", zero, n)
			}
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(12)
	s := r.Split()
	// The split stream must differ from the parent's subsequent output.
	same := 0
	for i := 0; i < 1000; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream correlates: %d collisions", same)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(13)
	p := 0.01
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / n
	want := (1 - p) / p // mean of geometric (failures before success)
	if math.Abs(mean-want)/want > 0.03 {
		t.Errorf("geometric mean %.2f, want %.2f", mean, want)
	}
}

func TestGeometricEdges(t *testing.T) {
	r := NewRNG(14)
	if r.Geometric(0) != math.MaxInt {
		t.Error("p=0 should never fire")
	}
	if r.Geometric(-1) != math.MaxInt {
		t.Error("p<0 should never fire")
	}
	if r.Geometric(1) != 0 {
		t.Error("p=1 should fire immediately")
	}
}

func TestChannelZeroBER(t *testing.T) {
	ch := NewChannel(0, 0, NewRNG(1))
	buf := make([]byte, 256)
	for i := 0; i < 100; i++ {
		if ch.Corrupt(buf) != 0 {
			t.Fatal("zero-BER channel flipped a bit")
		}
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("buffer modified")
		}
	}
}

// The observed bit flip rate must match the configured BER.
func TestChannelBERCalibration(t *testing.T) {
	for _, ber := range []float64{1e-2, 1e-3, 1e-4} {
		ch := NewChannel(ber, 0, NewRNG(2))
		buf := make([]byte, 256)
		flips := 0
		trials := int(200 / ber / 2048) // aim for ~200 expected flips minimum
		if trials < 2000 {
			trials = 2000
		}
		for i := 0; i < trials; i++ {
			flips += ch.Corrupt(buf)
		}
		got := float64(flips) / float64(trials*2048)
		if math.Abs(got-ber)/ber > 0.15 {
			t.Errorf("BER %.0e: observed %.3e", ber, got)
		}
	}
}

// Observed flit error rate must match Eq. 1: FER = 1-(1-BER)^bits.
func TestChannelFlitErrorRateMatchesEq1(t *testing.T) {
	ber := 1e-4
	ch := NewChannel(ber, 0, NewRNG(3))
	buf := make([]byte, 256)
	const trials = 100000
	for i := 0; i < trials; i++ {
		for j := range buf {
			buf[j] = 0
		}
		ch.Corrupt(buf)
	}
	got := float64(ch.UnitsTouched) / trials
	want := 1 - math.Pow(1-ber, 2048)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("FER %.4f, want %.4f", got, want)
	}
}

func TestChannelBurstExtension(t *testing.T) {
	// With BurstProb=0.5, mean burst length is 2. Verify flips-per-event.
	ch := NewChannel(1e-3, 0.5, NewRNG(4))
	buf := make([]byte, 256)
	for i := 0; i < 50000; i++ {
		ch.Corrupt(buf)
	}
	if ch.ErrorEvents == 0 {
		t.Fatal("no error events")
	}
	perEvent := float64(ch.BitsFlipped) / float64(ch.ErrorEvents)
	if perEvent < 1.8 || perEvent > 2.2 {
		t.Errorf("burst mean %.2f bits/event, want ~2.0", perEvent)
	}
}

func TestChannelBurstsAreContiguous(t *testing.T) {
	// With a high burst probability and a single event, flipped bits must
	// be contiguous.
	for seed := uint64(0); seed < 50; seed++ {
		ch := NewChannel(1e-6, 0.9, NewRNG(seed))
		buf := make([]byte, 4096)
		n := ch.Corrupt(buf)
		if n == 0 || ch.ErrorEvents != 1 {
			continue
		}
		first, last, count := -1, -1, 0
		for i := 0; i < len(buf)*8; i++ {
			if buf[i/8]&(1<<(7-i%8)) != 0 {
				if first < 0 {
					first = i
				}
				last = i
				count++
			}
		}
		if count != last-first+1 {
			t.Fatalf("seed %d: burst not contiguous (%d bits in span %d)", seed, count, last-first+1)
		}
	}
}

func BenchmarkCorruptLowBER(b *testing.B) {
	ch := NewChannel(1e-6, 0, NewRNG(6))
	buf := make([]byte, 256)
	b.SetBytes(256)
	for i := 0; i < b.N; i++ {
		ch.Corrupt(buf)
	}
}

func BenchmarkCorruptHighBER(b *testing.B) {
	ch := NewChannel(1e-3, 0.3, NewRNG(7))
	buf := make([]byte, 256)
	b.SetBytes(256)
	for i := 0; i < b.N; i++ {
		ch.Corrupt(buf)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(8)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= r.Uint64()
	}
	sinkU = acc
}

var sinkU uint64
