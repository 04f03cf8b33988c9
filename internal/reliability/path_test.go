package reliability

import (
	"math"
	"testing"
)

// TestMeasureFERPathScheduleMatchesByteLevel: the bulk path-schedule walk
// must count exactly the flits the per-hop byte-level reference counts,
// across hop depths and BERs.
func TestMeasureFERPathScheduleMatchesByteLevel(t *testing.T) {
	for _, hops := range []int{1, 3, 7} {
		for _, ber := range []float64{1e-4, 1e-5, 1e-6} {
			ref := MeasureFERPath(ber, hops, 60000, 11)
			got := MeasureFERPathSchedule(ber, hops, 60000, 11)
			if ref != got {
				t.Errorf("hops=%d ber=%g: schedule sample diverges:\nbyte  %+v\nsched %+v", hops, ber, ref, got)
			}
		}
	}
}

// TestMeasureFERPathOneHopMatchesSingleLink: a 1-hop path is the single
// link — the path estimator must reproduce MeasureFERSchedule exactly.
func TestMeasureFERPathOneHopMatchesSingleLink(t *testing.T) {
	const ber, flits, seed = 1e-5, 200000, 3
	link := MeasureFERSchedule(ber, flits, seed)
	path := MeasureFERPathSchedule(ber, 1, flits, seed)
	if path.Erroneous != link.Erroneous || path.FER != link.FER {
		t.Fatalf("1-hop path %+v != single link %+v", path, link)
	}
}

// TestMeasureFERPathTracksAnalytic: the measured multi-hop FER lands
// within 4σ of 1-(1-p)^(H·n) at a BER where events are plentiful.
func TestMeasureFERPathTracksAnalytic(t *testing.T) {
	const ber, hops, flits = 1e-5, 5, 400000
	s := MeasureFERPathSchedule(ber, hops, flits, 17)
	sigma := math.Sqrt(s.Analytic * (1 - s.Analytic) / float64(flits))
	if d := math.Abs(s.FER - s.Analytic); d > 4*sigma {
		t.Fatalf("path FER %g vs analytic %g: off by %.1fσ", s.FER, s.Analytic, d/sigma)
	}
}

// TestMeasureFERPathGuards pins the argument panics.
func TestMeasureFERPathGuards(t *testing.T) {
	for name, fn := range map[string]func(){
		"byte-flits":  func() { MeasureFERPath(1e-6, 3, 0, 1) },
		"byte-hops":   func() { MeasureFERPath(1e-6, 0, 10, 1) },
		"sched-flits": func() { MeasureFERPathSchedule(1e-6, 3, 0, 1) },
		"sched-hops":  func() { MeasureFERPathSchedule(1e-6, 0, 10, 1) },
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
