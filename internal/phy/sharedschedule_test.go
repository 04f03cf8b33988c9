package phy

import (
	"context"
	"slices"
	"testing"
)

// TestSharedScheduleMatchesChannelStream: driving a SharedSchedule with
// the grant-then-per-unit policy consumes exactly the stream an
// identically seeded schedule consumes crossing by crossing — same flip
// counts per unit, same residual, same RNG draws — whenever the policy's
// consumption order is unit-sequential (one traversal at a time).
func TestSharedScheduleMatchesChannelStream(t *testing.T) {
	const unit = 2048
	const hops = 5
	const traversals = 4000
	for _, ber := range []float64{1e-4, 1e-5, 5e-6} {
		s := NewSharedSchedule(ber, 0.4, NewRNG(7), unit)
		ref := NewSharedSchedule(ber, 0.4, NewRNG(7), unit)

		for i := 0; i < traversals; i++ {
			var want [hops]int
			for h := 0; h < hops; h++ {
				want[h] = ref.Traverse()
			}
			if s.Begin(hops) {
				for h := 0; h < hops; h++ {
					if want[h] != 0 {
						t.Fatalf("ber %g traversal %d: grant given but reference flips %d bits at hop %d", ber, i, want[h], h)
					}
				}
				continue
			}
			dirty := false
			for h := 0; h < hops; h++ {
				var got int
				if s.CrossClean() {
					s.Advance()
				} else {
					got = s.Traverse()
				}
				if got != want[h] {
					t.Fatalf("ber %g traversal %d hop %d: %d flips, reference %d", ber, i, h, got, want[h])
				}
				if got > 0 {
					dirty = true
				}
			}
			if !dirty {
				t.Fatalf("ber %g traversal %d: grant refused but traversal clean", ber, i)
			}
		}
		if s.BitsSeen != ref.BitsSeen || s.BitsFlipped != ref.BitsFlipped ||
			s.ErrorEvents != ref.ErrorEvents {
			t.Fatalf("ber %g: accounting diverged: %+v vs BitsSeen=%d BitsFlipped=%d ErrorEvents=%d",
				ber, s, ref.BitsSeen, ref.BitsFlipped, ref.ErrorEvents)
		}
	}
}

// TestSharedScheduleCorruptPlacesFlipsOnAssignedHop: a dirty traversal's
// flips land on exactly the crossing the schedule assigns them, at the
// same bit positions a unit-sequential Corrupt would produce.
func TestSharedScheduleCorruptPlacesFlipsOnAssignedHop(t *testing.T) {
	const unit = 2048
	const hops = 3
	s := NewSharedSchedule(2e-4, 0.4, NewRNG(21), unit)
	ref := NewSharedSchedule(2e-4, 0.4, NewRNG(21), unit)

	dirtySeen := 0
	for i := 0; i < 3000; i++ {
		var want [hops][]byte
		for h := 0; h < hops; h++ {
			buf := make([]byte, unit/8)
			ref.Corrupt(buf)
			want[h] = buf
		}
		if s.Begin(hops) {
			continue
		}
		dirtySeen++
		for h := 0; h < hops; h++ {
			buf := make([]byte, unit/8)
			if s.CrossClean() {
				s.Advance()
			} else if s.Corrupt(buf) > 0 {
				// flips recorded in buf
			}
			for b := range buf {
				if buf[b] != want[h][b] {
					t.Fatalf("traversal %d hop %d byte %d: %02x, reference %02x", i, h, b, buf[b], want[h][b])
				}
			}
		}
	}
	if dirtySeen == 0 {
		t.Fatal("no dirty traversal exercised")
	}
}

// TestSharedScheduleZeroBER: a clean channel grants every traversal and
// still accounts bits.
func TestSharedScheduleZeroBER(t *testing.T) {
	s := NewSharedSchedule(0, 0, NewRNG(1), 2048)
	for i := 0; i < 10; i++ {
		if !s.Begin(7) {
			t.Fatal("zero-BER schedule refused a grant")
		}
	}
	if s.BitsSeen != 10*7*2048 {
		t.Fatalf("BitsSeen %d", s.BitsSeen)
	}
}

// TestSharedScheduleGuards pins the constructor and Begin panics.
func TestSharedScheduleGuards(t *testing.T) {
	for name, fn := range map[string]func(){
		"unit": func() { NewSharedSchedule(1e-6, 0, NewRNG(1), 0) },
		"hops": func() { NewSharedSchedule(1e-6, 0, NewRNG(1), 8).Begin(0) },
		"buf":  func() { NewSharedSchedule(1e-6, 0, NewRNG(1), 16).Corrupt(make([]byte, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestWalkEpochSkipMatchesStepwise: a one-hop Walk — clean epochs
// jumped in one grant, struck crossings Traversed — consumes exactly the
// stream a crossing-by-crossing walk consumes: same struck crossings,
// same flip counts, same channel accounting.
func TestWalkEpochSkipMatchesStepwise(t *testing.T) {
	const unit = 2048
	const crossings = 60000
	s := NewSharedSchedule(1e-5, 0.4, NewRNG(9), unit)
	ref := NewSharedSchedule(1e-5, 0.4, NewRNG(9), unit)
	struck := 0
	clean := s.Walk(context.Background(), 1, crossings, func() {
		for {
			want := ref.Traverse()
			if want == 0 {
				continue // a clean crossing Walk granted
			}
			if got := s.Traverse(); got != want {
				t.Fatalf("struck crossing %d: flips %d, reference %d", struck, got, want)
			}
			break
		}
		struck++
	})
	for ref.BitsSeen < uint64(crossings*unit) {
		if got := ref.Traverse(); got != 0 {
			t.Fatalf("trailing crossing declared clean but reference flips %d bits", got)
		}
	}
	if struck == 0 {
		t.Fatal("no struck crossing exercised")
	}
	if clean+struck != crossings {
		t.Fatalf("clean %d + struck %d != %d crossings", clean, struck, crossings)
	}
	sc := s
	if sc.BitsSeen != ref.BitsSeen || sc.BitsFlipped != ref.BitsFlipped || sc.ErrorEvents != ref.ErrorEvents {
		t.Fatalf("accounting diverged: BitsSeen %d/%d BitsFlipped %d/%d ErrorEvents %d/%d",
			sc.BitsSeen, ref.BitsSeen, sc.BitsFlipped, ref.BitsFlipped, sc.ErrorEvents, ref.ErrorEvents)
	}
}

// TestWalkZeroBER: a schedule that will never fire grants every unit in
// one step and consumes exactly that many traversals.
func TestWalkZeroBER(t *testing.T) {
	s := NewSharedSchedule(0, 0, NewRNG(1), 2048)
	clean := s.Walk(context.Background(), 3, 123, func() { t.Fatal("zero-BER schedule struck a traversal") })
	if clean != 123 {
		t.Fatalf("Walk clean %d, want all 123", clean)
	}
	if s.Walk(context.Background(), 3, 0, nil) != 0 { // no units: no-op
		t.Fatal("empty walk reported clean units")
	}
	if s.BitsSeen != 123*3*2048 {
		t.Fatalf("BitsSeen %d", s.BitsSeen)
	}
}

// TestWalkStopsOnCancel: a canceled context stops the walk at its first
// poll, before any unit is consumed.
func TestWalkStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSharedSchedule(0.5, 0, NewRNG(1), 64)
	if clean := s.Walk(ctx, 1, 1000, func() { t.Fatal("canceled walk struck a unit") }); clean != 0 {
		t.Fatalf("canceled walk granted %d units", clean)
	}
	if s.BitsSeen != 0 {
		t.Fatalf("canceled walk consumed %d bits", s.BitsSeen)
	}
}

// FuzzWalkMatchesStepwise: for any BER, burst, seed, hop count and unit
// count, Walk — with onStruck Traversing the struck traversal's crossings
// one by one — reports the clean traversals, struck traversals (with
// their flip counts, in order) and channel accounting of a
// crossing-by-crossing Traverse walk on the same seed.
func FuzzWalkMatchesStepwise(f *testing.F) {
	const unit = 256
	f.Fuzz(func(t *testing.T, ber, burst float64, seed uint64, hops uint8, units uint16) {
		if !(ber >= 0 && ber <= 1) || !(burst >= 0 && burst < 1) {
			return
		}
		h, n := int(hops%8)+1, int(units%1024)

		s := NewSharedSchedule(ber, burst, NewRNG(seed), unit)
		var struck []int
		clean := s.Walk(context.Background(), h, n, func() {
			flips := 0
			for c := 0; c < h; c++ {
				flips += s.Traverse()
			}
			struck = append(struck, flips)
		})

		ref := NewSharedSchedule(ber, burst, NewRNG(seed), unit)
		var want []int
		refClean := 0
		for i := 0; i < n; i++ {
			flips := 0
			for c := 0; c < h; c++ {
				flips += ref.Traverse()
			}
			if flips == 0 {
				refClean++
			} else {
				want = append(want, flips)
			}
		}

		if clean != refClean || !slices.Equal(struck, want) {
			t.Fatalf("clean %d struck %v, stepwise clean %d struck %v", clean, struck, refClean, want)
		}
		sc := s
		if sc.BitsSeen != ref.BitsSeen || sc.BitsFlipped != ref.BitsFlipped ||
			sc.ErrorEvents != ref.ErrorEvents || sc.UnitsTouched != ref.UnitsTouched {
			t.Fatalf("accounting diverged: %+v, stepwise %+v", *sc, *ref)
		}
	})
}
