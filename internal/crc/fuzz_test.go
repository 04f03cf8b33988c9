package crc

import (
	"bytes"
	"testing"
)

// FuzzUpdate cross-checks the dispatched path (CLMUL where available)
// against the slicing-by-16 reference and pins incremental splits against
// the one-shot computation. Run under both the default and purego builds
// by the CI kernel leg, so the asm path can never drift from the
// reference unnoticed.
func FuzzUpdate(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint64(0))
	f.Add([]byte("hello, flit"), uint16(3), uint64(1))
	f.Add(bytes.Repeat([]byte{0xA5}, 242), uint16(16), uint64(0xFFFFFFFFFFFFFFFF))
	f.Add(bytes.Repeat([]byte{0x00}, 64), uint16(63), uint64(0x42F0E1EBA9EA3693))
	f.Add(bytes.Repeat([]byte{0xFF}, 129), uint16(64), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, split uint16, state uint64) {
		want := UpdateSlicing16(state, data)
		if got := Update(state, data); got != want {
			t.Fatalf("dispatched %#x != slicing16 %#x (n=%d)", got, want, len(data))
		}
		cut := int(split)
		if len(data) > 0 {
			cut %= len(data) + 1
		} else {
			cut = 0
		}
		if got := Update(Update(state, data[:cut]), data[cut:]); got != want {
			t.Fatalf("incremental cut=%d %#x != one-shot %#x", cut, got, want)
		}
	})
}

// FuzzChecksumISN pins the ISN fold (including its Update-backed prefix
// fast path) against the definitional reference — XOR the masked sequence
// number into the last two message bytes, then plain-checksum — and
// checks segment-split invariance across the folded tail.
func FuzzChecksumISN(f *testing.F) {
	f.Add([]byte{0, 0}, uint16(0), uint16(0))
	f.Add([]byte("abcdefghij"), uint16(1023), uint16(5))
	f.Add(bytes.Repeat([]byte{0x5A}, 242), uint16(512), uint16(240))
	f.Add(bytes.Repeat([]byte{0x00}, 67), uint16(99), uint16(66))
	f.Fuzz(func(t *testing.T, data []byte, seq uint16, split uint16) {
		if len(data) < 2 {
			return
		}
		folded := append([]byte(nil), data...)
		folded[len(folded)-2] ^= byte((seq & SeqMask) >> 8)
		folded[len(folded)-1] ^= byte(seq & SeqMask)
		want := Checksum(folded)
		if got := ChecksumISN(seq, data); got != want {
			t.Fatalf("ISN %#x != manual fold %#x (n=%d seq=%d)", got, want, len(data), seq)
		}
		cut := int(split) % (len(data) + 1)
		if got := ChecksumISN(seq, data[:cut], data[cut:]); got != want {
			t.Fatalf("ISN split cut=%d %#x != %#x", cut, got, want)
		}
	})
}
