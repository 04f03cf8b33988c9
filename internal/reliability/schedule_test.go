package reliability

import "testing"

// TestMeasureFERScheduleMatchesByteLevel proves the single-link schedule
// walk is a drop-in replacement for the byte-level reference, the one-hop
// MeasureFERPath: identical seeds must give identical counts (not just
// statistically equivalent ones), because Traverse consumes exactly the
// RNG stream Corrupt would.
func TestMeasureFERScheduleMatchesByteLevel(t *testing.T) {
	for _, ber := range []float64{1e-3, 1e-4, 1e-5, 1e-6} {
		for seed := uint64(1); seed <= 5; seed++ {
			byteLevel := MeasureFERPath(ber, 1, 30000, seed)
			schedule := MeasureFERSchedule(ber, 30000, seed)
			if byteLevel.Flits != schedule.Flits || byteLevel.Erroneous != schedule.Erroneous {
				t.Fatalf("BER %g seed %d: byte-level %+v, schedule %+v",
					ber, seed, byteLevel, schedule)
			}
		}
	}
}

func TestMeasureFERSchedulePanicsOnZeroFlits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero flits")
		}
	}()
	MeasureFERSchedule(1e-6, 0, 1)
}
