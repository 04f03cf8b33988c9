package reliability

import (
	"context"
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
// crossings of one shared schedule, each corrupting a real flit image
// through the schedule's one-hop Corrupt. It exists to pin
// MeasureFERPathSchedule bit-exactly (the schedule walk must count
// precisely the flits this loop counts), not for throughput.
func MeasureFERPath(ber float64, hops, flits int, seed uint64) PathFERSample {
	if flits <= 0 || hops <= 0 {
		panic("reliability: MeasureFERPath needs positive hops and flits")
	}
	ch := phy.NewSharedSchedule(ber, 0, phy.NewRNG(seed), FlitBits)
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

// MeasureFERPathSchedule is MeasureFERPath on the shared path schedule,
// walked by phy.SharedSchedule.Walk: whole clean traversals — at
// production BERs, hundreds at a time — are consumed in one O(1) grant
// with zero RNG draws, and a struck traversal runs a one-hop Walk over
// its own crossings, so the clean crossings before and between its
// events are jumped too and the per-traversal cost is proportional to
// error events, not hops. Corruption still lands on the exact per-hop
// unit the schedule assigns it (each struck crossing goes through
// Traverse), and the schedule consumes exactly the random stream
// MeasureFERPath would, so identical seeds give identical samples —
// proven by TestMeasureFERPathScheduleMatchesByteLevel.
func MeasureFERPathSchedule(ber float64, hops, flits int, seed uint64) PathFERSample {
	if flits <= 0 || hops <= 0 {
		panic("reliability: MeasureFERPathSchedule needs positive hops and flits")
	}
	ctx := context.TODO()
	s := phy.NewSharedSchedule(ber, 0, phy.NewRNG(seed), FlitBits)
	bad, struck := 0, false
	crossing := func() {
		if s.Traverse() > 0 {
			struck = true
		}
	}
	s.Walk(ctx, hops, flits, func() {
		struck = false
		s.Walk(ctx, 1, hops, crossing)
		if struck {
			bad++
		}
	})
	return pathSample(ber, hops, flits, bad)
}
