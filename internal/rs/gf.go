package rs

// GF(2^8) arithmetic for the codes, over the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the conventional choice for
// Reed-Solomon codes. Elements are bytes; addition is XOR, multiplication
// goes through exp/log tables written once at package init and only read
// afterwards.

// fieldPoly is the field's primitive polynomial with the x^8 term implicit.
const fieldPoly = 0x11D

// order is the multiplicative order of the field's generator α: every
// nonzero element satisfies a^order == 1.
const order = 255

// expTable[i] = α^i for i in [0, 2·order), doubled so that mul can index
// expTable[log(a)+log(b)] without a modular reduction; logTable[a] is the
// discrete log of a, with logTable[0] a poison value. They are variable
// initializers, not an init func, so the package-level remainder tables
// built from mul are ordered after them.
var expTable, logTable = func() (et [2 * order]byte, lt [256]int) {
	x := 1
	for i := 0; i < order; i++ {
		et[i] = byte(x)
		et[i+order] = byte(x)
		lt[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= fieldPoly
		}
	}
	if x != 1 {
		panic("rs: field generator does not have order 255; polynomial is not primitive")
	}
	lt[0] = -1
	return et, lt
}()

// mul returns a·b in GF(2^8).
func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// exp returns α^e, with e reduced modulo order.
func exp(e int) byte {
	e %= order
	if e < 0 {
		e += order
	}
	return expTable[e]
}

// log returns the e in [0, order) with α^e == a. It panics if a == 0.
func log(a byte) int {
	if a == 0 {
		panic("rs: log of zero")
	}
	return logTable[a]
}
