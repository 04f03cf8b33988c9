package gf256

import (
	"testing"
	"testing/quick"
)

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Errorf("Mul(%d, 1) = %d", a, Mul(byte(a), 1))
		}
		if Mul(byte(a), 0) != 0 {
			t.Errorf("Mul(%d, 0) = %d", a, Mul(byte(a), 0))
		}
	}
}

// mulSlow is a bitwise reference implementation of carry-less multiplication
// modulo the field polynomial, independent of the table construction.
func mulSlow(a, b byte) byte {
	var prod uint16
	aa := uint16(a)
	for i := 0; i < 8; i++ {
		if b&(1<<i) != 0 {
			prod ^= aa << i
		}
	}
	// Reduce modulo x^8+x^4+x^3+x^2+1.
	for i := 15; i >= 8; i-- {
		if prod&(1<<i) != 0 {
			prod ^= uint16(Poly) << (i - 8)
		}
	}
	return byte(prod)
}

func TestMulMatchesBitwiseReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b))
			if got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulCommutativeAssociativeDistributive(t *testing.T) {
	comm := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	dist := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(dist, nil); err != nil {
		t.Error(err)
	}
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for e := 0; e < Order; e++ {
		if Log(Exp(e)) != e {
			t.Fatalf("Log(Exp(%d)) = %d", e, Log(Exp(e)))
		}
	}
	// Exp is periodic with period Order, including negative exponents.
	if Exp(-1) != Exp(Order-1) {
		t.Error("Exp(-1) != Exp(Order-1)")
	}
	if Exp(Order) != 1 {
		t.Error("Exp(Order) != 1")
	}
}

func TestExpCoversAllNonzeroElements(t *testing.T) {
	seen := make(map[byte]bool)
	for e := 0; e < Order; e++ {
		seen[Exp(e)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator orbit has %d elements, want 255", len(seen))
	}
	if seen[0] {
		t.Fatal("generator orbit contains 0")
	}
}

func TestPolyEval(t *testing.T) {
	// p(x) = 2x^2 + 3x + 5
	p := []byte{2, 3, 5}
	for x := 0; x < 256; x++ {
		xb := byte(x)
		want := Mul(2, Mul(xb, xb)) ^ Mul(3, xb) ^ 5
		if got := PolyEval(p, xb); got != want {
			t.Fatalf("PolyEval at x=%d: got %d want %d", x, got, want)
		}
	}
	if PolyEval(nil, 7) != 0 {
		t.Error("PolyEval(nil) != 0")
	}
}

func TestPolyMul(t *testing.T) {
	// (x + 1)(x + 2) = x^2 + 3x + 2 over GF(2^8).
	got := PolyMul([]byte{1, 1}, []byte{1, 2})
	want := []byte{1, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("PolyMul length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PolyMul[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if PolyMul(nil, []byte{1}) != nil {
		t.Error("PolyMul with empty operand should be nil")
	}
}

// Property: evaluating a product polynomial equals the product of evaluations.
func TestPolyMulEvalHomomorphism(t *testing.T) {
	prop := func(a0, a1, b0, b1, x byte) bool {
		a := []byte{a0, a1}
		b := []byte{b0, b1}
		return PolyEval(PolyMul(a, b), x) == Mul(PolyEval(a, x), PolyEval(b, x))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8))
	}
	sink = acc
}

var sink byte
