package rs

import (
	"testing"
	"testing/quick"
)

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if mul(byte(a), 1) != byte(a) {
			t.Errorf("mul(%d, 1) = %d", a, mul(byte(a), 1))
		}
		if mul(byte(a), 0) != 0 {
			t.Errorf("mul(%d, 0) = %d", a, mul(byte(a), 0))
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
			prod ^= uint16(fieldPoly) << (i - 8)
		}
	}
	return byte(prod)
}

func TestMulMatchesBitwiseReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			got, want := mul(byte(a), byte(b)), mulSlow(byte(a), byte(b))
			if got != want {
				t.Fatalf("mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulCommutativeAssociativeDistributive(t *testing.T) {
	comm := func(a, b byte) bool { return mul(a, b) == mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c byte) bool { return mul(mul(a, b), c) == mul(a, mul(b, c)) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	dist := func(a, b, c byte) bool { return mul(a, b^c) == mul(a, b)^mul(a, c) }
	if err := quick.Check(dist, nil); err != nil {
		t.Error(err)
	}
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("log(0) did not panic")
		}
	}()
	log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for e := 0; e < order; e++ {
		if log(exp(e)) != e {
			t.Fatalf("log(exp(%d)) = %d", e, log(exp(e)))
		}
	}
	// Exp is periodic with period order, including negative exponents.
	if exp(-1) != exp(order-1) {
		t.Error("exp(-1) != exp(order-1)")
	}
	if exp(order) != 1 {
		t.Error("exp(order) != 1")
	}
}

func TestExpCoversAllNonzeroElements(t *testing.T) {
	seen := make(map[byte]bool)
	for e := 0; e < order; e++ {
		seen[exp(e)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator orbit has %d elements, want 255", len(seen))
	}
	if seen[0] {
		t.Fatal("generator orbit contains 0")
	}
}

// TestGeneratorRoots pins the literal gen: g(x) = x² + 3x + 2 must vanish
// at α^0 and α^1, the two roots the single-symbol decoder's syndromes are
// taken at.
func TestGeneratorRoots(t *testing.T) {
	for j := 0; j < nparity; j++ {
		var acc byte
		for _, c := range gen {
			acc = mul(acc, exp(j)) ^ c
		}
		if acc != 0 {
			t.Errorf("g(α^%d) = %#x, want 0", j, acc)
		}
	}
}
