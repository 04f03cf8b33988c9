package reliability

import (
	"math"

	"repro/internal/phy"
)

// This file extends the Monte-Carlo FER estimators from a single link to
// a multi-hop path: the mesh/chain model where one shared error-event
// schedule covers a flit's whole source→destination traversal (H hop
// crossings of FlitBits each). It is the measurement-side counterpart of
// phy.SharedSchedule — the same consumption policy the live mesh applies,
// stripped of the event simulator.

// PathFERSample is the result of a multi-hop Monte-Carlo flit error rate
// measurement: the probability that a flit is struck on *any* crossing of
// an H-hop path.
type PathFERSample struct {
	Hops      int
	Flits     int
	Erroneous int     // flits with at least one flipped bit on any hop
	FER       float64 // Erroneous / Flits
	Analytic  float64 // 1-(1-BER)^(Hops·FlitBits), the Eq. 1 form per path
}

// pathSample fills in the measured and analytic rates of a finished
// count; the analytic form is Eq. 1 generalized to an H-hop traversal.
func pathSample(ber float64, hops, flits, bad int) PathFERSample {
	return PathFERSample{
		Hops:      hops,
		Flits:     flits,
		Erroneous: bad,
		FER:       float64(bad) / float64(flits),
		Analytic:  1 - math.Pow(1-ber, float64(hops*FlitBits)),
	}
}

// MeasureFERPath is the byte-level reference: every flit crosses `hops`
// crossings of one shared schedule, each corrupting a real flit image.
// It exists to pin MeasureFERPathSchedule bit-exactly (the schedule walk
// must count precisely the flits this loop counts), not for throughput.
func MeasureFERPath(ber float64, hops, flits int, seed uint64) PathFERSample {
	if flits <= 0 || hops <= 0 {
		panic("reliability: MeasureFERPath needs positive hops and flits")
	}
	ch := phy.NewChannel(ber, 0, phy.NewRNG(seed))
	buf := make([]byte, FlitBits/8)
	bad := 0
	for i := 0; i < flits; i++ {
		struck := false
		for h := 0; h < hops; h++ {
			for j := range buf {
				buf[j] = 0
			}
			if ch.Corrupt(buf) > 0 {
				struck = true
			}
		}
		if struck {
			bad++
		}
	}
	return pathSample(ber, hops, flits, bad)
}

// MeasureFERPathSchedule is MeasureFERPath on the shared path schedule
// with full clean-epoch skipping: whole clean traversals — at production
// BERs, hundreds at a time — are consumed in one O(1) GrantSpan with zero
// RNG draws, and inside a struck traversal the loop jumps straight to the
// struck crossing (CleanCrossings/AdvanceCrossings) instead of walking
// each clean hop, so the per-traversal cost is proportional to error
// events, not hops. Corruption still lands on the exact per-hop unit the
// schedule assigns it (each event crossing goes through Traverse), and
// the channel consumes exactly the random stream MeasureFERPath would, so
// identical seeds give identical samples — proven by
// TestMeasureFERPathScheduleMatchesByteLevel.
func MeasureFERPathSchedule(ber float64, hops, flits int, seed uint64) PathFERSample {
	if flits <= 0 || hops <= 0 {
		panic("reliability: MeasureFERPathSchedule needs positive hops and flits")
	}
	s := phy.NewSharedSchedule(ber, 0, phy.NewRNG(seed), FlitBits)
	bad := 0
	for i := 0; i < flits; {
		if n := s.GrantSpan(hops, flits-i); n > 0 {
			i += n
			continue
		}
		// Struck traversal: jump clean epochs, simulate only the struck
		// crossings. h counts crossings consumed of this traversal.
		struck := false
		for h := 0; h < hops; {
			k := s.CleanCrossings(hops - h)
			s.AdvanceCrossings(k)
			h += k
			if h < hops {
				if s.Traverse() > 0 {
					struck = true
				}
				h++
			}
		}
		if struck {
			bad++
		}
		i++
	}
	return pathSample(ber, hops, flits, bad)
}
