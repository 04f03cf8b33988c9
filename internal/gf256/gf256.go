// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the conventional choice for
// Reed-Solomon codes in storage and communication standards. Elements are
// represented as bytes; addition is XOR, multiplication is carried out via
// exp/log tables built at package init.
//
// The package is the foundation of the shortened Reed-Solomon FEC used by
// the CXL/RXL link layer (internal/rs). It is allocation-free and safe for
// concurrent use: the tables are written once during init and only read
// afterwards.
package gf256

// Poly is the primitive polynomial used to construct the field, with the
// x^8 term implicit (0x11D = x^8+x^4+x^3+x^2+1).
const Poly = 0x11D

// Order is the multiplicative order of the field's generator: every nonzero
// element satisfies a^Order == 1.
const Order = 255

var (
	// expTable[i] = alpha^i for i in [0, 510). Doubled so that
	// Mul can index exp[log(a)+log(b)] without a modular reduction.
	expTable [510]byte
	// logTable[a] = discrete log of a (undefined for 0; logTable[0] is a
	// sentinel that is never consulted on valid inputs).
	logTable [256]int
)

func init() {
	x := 1
	for i := 0; i < Order; i++ {
		expTable[i] = byte(x)
		expTable[i+Order] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	if x != 1 {
		panic("gf256: generator does not have order 255; polynomial is not primitive")
	}
	logTable[0] = -1 // poison value: log of zero is undefined
}

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// Exp returns alpha^e where alpha is the field generator. The exponent may
// be any integer; it is reduced modulo Order.
func Exp(e int) byte {
	e %= Order
	if e < 0 {
		e += Order
	}
	return expTable[e]
}

// Log returns the discrete logarithm of a to base alpha, i.e. the e in
// [0, Order) with alpha^e == a. It panics if a == 0.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return logTable[a]
}

// PolyEval evaluates the polynomial with coefficients p (p[0] is the
// highest-degree coefficient) at point x, using Horner's rule.
func PolyEval(p []byte, x byte) byte {
	var acc byte
	for _, c := range p {
		acc = Mul(acc, x) ^ c
	}
	return acc
}

// PolyMul returns the product of polynomials a and b (highest-degree
// coefficient first).
func PolyMul(a, b []byte) []byte {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]byte, len(a)+len(b)-1)
	for i, ac := range a {
		if ac == 0 {
			continue
		}
		for j, bc := range b {
			out[i+j] ^= Mul(ac, bc)
		}
	}
	return out
}
