package phy

import "testing"

// flitBits is the unit width used throughout the schedule tests: one 256B
// flit.
const flitBits = 2048

// flipPositions corrupts n consecutive units of unitBytes through ch and
// returns the global bit positions of every flip, concatenated across
// units.
func flipPositions(ch *SharedSchedule, n, unitBytes int) []int {
	var pos []int
	buf := make([]byte, unitBytes)
	for u := 0; u < n; u++ {
		for i := range buf {
			buf[i] = 0
		}
		ch.Corrupt(buf)
		for i, b := range buf {
			for bit := 0; bit < 8; bit++ {
				if b&(1<<(7-bit)) != 0 {
					pos = append(pos, u*unitBytes*8+i*8+bit)
				}
			}
		}
	}
	return pos
}

// TestResidualGapCarry is the regression test for the flit-boundary
// truncation bug: the gap to the next error must be carried across unit
// boundaries, so splitting a bit stream into flit-sized units cannot
// change where errors land. With BurstProb=0 (no boundary-sensitive DFE
// propagation) the error positions over 64 flits must be bit-identical to
// one Corrupt call over the same 64-flit span.
func TestResidualGapCarry(t *testing.T) {
	const units, unitBytes = 64, flitBits / 8
	for _, ber := range []float64{1e-2, 1e-3, 1e-4} {
		whole := NewSharedSchedule(ber, 0, NewRNG(77), units*flitBits)
		split := NewSharedSchedule(ber, 0, NewRNG(77), flitBits)

		wantPos := flipPositions(whole, 1, units*unitBytes)
		gotPos := flipPositions(split, units, unitBytes)

		if len(wantPos) == 0 {
			t.Fatalf("BER %g: test vacuous, no errors drawn", ber)
		}
		if len(gotPos) != len(wantPos) {
			t.Fatalf("BER %g: split run flipped %d bits, whole run %d",
				ber, len(gotPos), len(wantPos))
		}
		for i := range wantPos {
			if gotPos[i] != wantPos[i] {
				t.Fatalf("BER %g: flip %d at bit %d in split run, %d in whole run",
					ber, i, gotPos[i], wantPos[i])
			}
		}
		if whole.BitsSeen != split.BitsSeen || whole.BitsFlipped != split.BitsFlipped ||
			whole.ErrorEvents != split.ErrorEvents {
			t.Fatalf("BER %g: stats diverge: whole %+v split %+v", ber, whole, split)
		}
	}
}

// TestBurstStraddlingBoundary pins the two boundary behaviors down: a DFE
// burst is truncated at the unit boundary (the equalizer retrains per
// flit), but the geometric gap behind it still carries — after any
// corrupted unit, the next unit's first error must land exactly at the
// residual NextEvent reports.
func TestBurstStraddlingBoundary(t *testing.T) {
	const unitBytes = flitBits / 8
	// High BER and burst probability so bursts regularly reach the
	// boundary within a reasonable number of units.
	ch := NewSharedSchedule(5e-3, 0.9, NewRNG(3), flitBits)
	buf := make([]byte, unitBytes)
	sawBoundaryHit := false
	for u := 0; u < 400; u++ {
		for i := range buf {
			buf[i] = 0
		}
		n := ch.Corrupt(buf)
		if n > 0 && buf[unitBytes-1]&1 != 0 {
			sawBoundaryHit = true // a flip on the very last bit: burst was cut here
		}
		// The residual gap must describe the next unit exactly.
		next := ch.NextEvent()
		if next == NoEvent {
			t.Fatal("NextEvent exhausted at BER 5e-3")
		}
		for i := range buf {
			buf[i] = 0
		}
		if ch.Corrupt(buf) == 0 {
			if next < flitBits {
				t.Fatalf("unit %d: NextEvent=%d promised an error, none landed", u, next)
			}
			continue
		}
		first := -1
		for i, b := range buf {
			if b != 0 {
				for bit := 0; bit < 8; bit++ {
					if b&(1<<(7-bit)) != 0 {
						first = i*8 + bit
						break
					}
				}
				break
			}
		}
		if first != next {
			t.Fatalf("unit %d: first flip at bit %d, schedule promised %d", u, first, next)
		}
	}
	if !sawBoundaryHit {
		t.Fatal("no burst ever reached a unit boundary; raise BER/BurstProb")
	}
}

// TestTraverseMatchesCorrupt proves the schedule-only path is
// bit-compatible with byte-level corruption: identical seeds give
// identical per-unit flip counts and identical channel statistics whether
// or not an image exists.
func TestTraverseMatchesCorrupt(t *testing.T) {
	const units = 3000
	for _, tc := range []struct{ ber, burst float64 }{
		{1e-3, 0}, {1e-3, 0.4}, {1e-4, 0.9}, {0, 0},
	} {
		byteCh := NewSharedSchedule(tc.ber, tc.burst, NewRNG(42), flitBits)
		schedCh := NewSharedSchedule(tc.ber, tc.burst, NewRNG(42), flitBits)
		buf := make([]byte, flitBits/8)
		for u := 0; u < units; u++ {
			for i := range buf {
				buf[i] = 0
			}
			got := schedCh.Traverse()
			want := byteCh.Corrupt(buf)
			if got != want {
				t.Fatalf("BER %g burst %g unit %d: Traverse flipped %d, Corrupt %d",
					tc.ber, tc.burst, u, got, want)
			}
		}
		if byteCh.BitsSeen != schedCh.BitsSeen ||
			byteCh.BitsFlipped != schedCh.BitsFlipped ||
			byteCh.ErrorEvents != schedCh.ErrorEvents ||
			byteCh.UnitsTouched != schedCh.UnitsTouched {
			t.Fatalf("BER %g burst %g: stats diverge: byte %+v sched %+v",
				tc.ber, tc.burst, byteCh, schedCh)
		}
	}
}

// TestNextEventAdvance covers the fast-path contract: NextEvent reflects
// the pending gap, Advance consumes clean spans without RNG draws, and
// advancing across a scheduled event panics instead of silently dropping
// it.
func TestNextEventAdvance(t *testing.T) {
	if got := NewSharedSchedule(0, 0, NewRNG(1), flitBits).NextEvent(); got != NoEvent {
		t.Fatalf("BER 0 NextEvent = %d, want NoEvent", got)
	}

	ch := NewSharedSchedule(1e-4, 0, NewRNG(9), flitBits)
	next := ch.NextEvent()
	// Advance in clean flit-sized steps up to the event.
	steps := 0
	for ch.NextEvent() >= flitBits {
		ch.Advance()
		steps++
		if want := next - steps*flitBits; ch.NextEvent() != want {
			t.Fatalf("after %d advances NextEvent = %d, want %d", steps, ch.NextEvent(), want)
		}
	}
	if ch.BitsSeen != uint64(steps*flitBits) {
		t.Fatalf("BitsSeen = %d after %d clean flits", ch.BitsSeen, steps)
	}
	// The event is now inside the next flit: byte-level corruption must
	// land it exactly at the remaining offset.
	rem := ch.NextEvent()
	buf := make([]byte, flitBits/8)
	if ch.Corrupt(buf) == 0 {
		t.Fatal("scheduled event did not fire")
	}
	if buf[rem/8]&(1<<(7-rem%8)) == 0 {
		t.Fatalf("scheduled event at bit %d did not flip that bit", rem)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Advance across a scheduled event did not panic")
		}
	}()
	ch2 := NewSharedSchedule(0.5, 0, NewRNG(2), flitBits)
	for ch2.NextEvent() >= flitBits {
		ch2.Advance()
	}
	ch2.Advance()
}
