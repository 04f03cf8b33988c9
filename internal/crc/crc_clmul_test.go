package crc

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestFlagsConsistent checks the invariants the dispatch relies on,
// without assuming anything about the host: the CLMUL kernel is never
// selected off amd64.
func TestFlagsConsistent(t *testing.T) {
	if runtime.GOARCH != "amd64" && UsingCLMUL() {
		t.Fatal("non-amd64 host dispatches to the CLMUL kernel")
	}
	t.Logf("UsingCLMUL() = %v", UsingCLMUL())
}

// foldConstants re-derives x^e mod P by long division for the exponents
// the assembly kernel hardcodes.
func foldConstants() map[int]uint64 {
	r := Poly // x^64 mod P
	out := map[int]uint64{}
	for e := 65; e <= 576; e++ {
		if r&(1<<63) != 0 {
			r = r<<1 ^ Poly
		} else {
			r <<= 1
		}
		switch e {
		case 128, 192, 512, 576:
			out[e] = r
		}
	}
	return out
}

// TestFoldConstants pins the DATA constants in crc_amd64.s to their
// mathematical derivation, so a typo in the assembly's constant block is a
// test failure here rather than a silent wrong-CRC on some input class.
func TestFoldConstants(t *testing.T) {
	want := map[int]uint64{
		128: 0x05F5C3C7EB52FAB6, // k128 low qword
		192: 0x4EB938A7D257740E, // k128 high qword
		512: 0x5F6843CA540DF020, // k512 low qword
		576: 0xDDF4B6981205B83F, // k512 high qword
	}
	got := foldConstants()
	for e, w := range want {
		if got[e] != w {
			t.Errorf("x^%d mod P = %#016x, assembly uses %#016x", e, got[e], w)
		}
	}
}

// TestFoldReduce pins the Go-side 128→64-bit reduction: for any 128-bit
// accumulator value, foldReduce must equal the CRC of its 16 bytes taken
// big-endian with zero initial state.
func TestFoldReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		hi, lo := rng.Uint64(), rng.Uint64()
		var b [16]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(hi >> (56 - 8*i))
			b[8+i] = byte(lo >> (56 - 8*i))
		}
		if got, want := foldReduce(hi, lo), UpdateBitwise(0, b[:]); got != want {
			t.Fatalf("foldReduce(%#x, %#x) = %#x, want %#x", hi, lo, got, want)
		}
	}
}

// TestCLMULMatchesReference drives the asm kernel directly (bypassing
// Update's length gate) across every block-count regime — below the
// 4-lane stride, exactly at it, mid-loop, and with every tail length —
// against the slicing-by-16 reference, with nonzero initial states.
func TestCLMULMatchesReference(t *testing.T) {
	if !hasCLMUL {
		t.Skip("no CLMUL on this host/build")
	}
	rng := rand.New(rand.NewSource(22))
	buf := make([]byte, 4096)
	rng.Read(buf)
	lengths := []int{16, 17, 31, 32, 48, 63, 64, 65, 79, 80, 127, 128, 129,
		192, 242, 250, 256, 1000, 4096}
	for _, n := range lengths {
		for _, init := range []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, rng.Uint64()} {
			want := UpdateSlicing16(init, buf[:n])
			if got := updateCLMUL(init, buf[:n]); got != want {
				t.Fatalf("n=%d init=%#x: clmul %#x != slicing16 %#x", n, init, got, want)
			}
		}
	}
}

// TestCLMULIncrementalSplits checks that mixed clmul/table incremental
// updates through Update agree with one-shot for every split of a
// flit-sized message — the contract Checksum's segment loop and the ISN
// prefix path rely on.
func TestCLMULIncrementalSplits(t *testing.T) {
	if !hasCLMUL {
		t.Skip("no CLMUL on this host/build")
	}
	rng := rand.New(rand.NewSource(23))
	data := make([]byte, 300)
	rng.Read(data)
	want := Update(0, data)
	if ref := UpdateBitwise(0, data); want != ref {
		t.Fatalf("one-shot dispatched %#x != bitwise %#x", want, ref)
	}
	for cut := 0; cut <= len(data); cut++ {
		if got := Update(Update(0, data[:cut]), data[cut:]); got != want {
			t.Fatalf("cut=%d: incremental %#x != one-shot %#x", cut, got, want)
		}
	}
}
