package link

import (
	"repro/internal/flit"
	"repro/internal/sim"
)

// Wire is a unidirectional flit conduit: each send occupies the wire for
// its serialization delay (back-to-back sends queue FIFO behind each
// other) and then propagates before the receiver gets the flit. In flight
// a flit meets an optional scripted fault hook used by the deterministic
// failure-scenario experiments (Figs. 4–5).
//
// A wire carries no error model. Bit errors belong to the fabric's path
// schedules, which each fabric consumes in front of the wire's receiver,
// so a flit reaches the fault hook before this wire's crossing.
type Wire struct {
	eng       *sim.Engine
	ser, prop sim.Time
	deliver   func(*flit.Flit)
	// sink is the wire's arrival handler, bound once so a send's delivery
	// event carries only the flit.
	sink func(interface{})
	// lane carries the wire's arrival events. Arrivals are claim ends plus
	// a fixed propagation delay, and claims never move backward, so the
	// stream is in order by construction.
	lane *sim.Lane

	busyUntil sim.Time
	busyTime  sim.Time // cumulative serialization occupancy
	queuePeak uint64

	// FaultHook, when non-nil, inspects each flit at arrival, before the
	// fabric puts it through this wire's crossing of its path schedule: it
	// sees what earlier crossings did, not this one. Returning true drops
	// the flit silently — the scripted equivalent of a switch discarding
	// an uncorrectable flit — and the crossing never happens. Hooked
	// wires force every flit onto the byte-level path: the wire takes the
	// image through flit.Image before the call, and the hook reaches it
	// with f.Image(nil), so it may mutate the image and no clean mark
	// survives to lie about it.
	// Express claims never cross a hooked wire, so a hook must be
	// installed before the run: one appearing mid-run would be skipped by
	// flits that claimed the wire earlier. A campaign whose fault comes
	// and goes keeps its hook installed and toggles what it returns.
	FaultHook func(*flit.Flit) bool

	// HookDropped counts flits dropped by FaultHook.
	HookDropped uint64
}

// NewWire builds a wire delivering flits to deliver after serialization and
// propagation delay. Use sim.FlitTime (2 ns) as the serialization delay of a
// full-speed x16 CXL 3.0 link.
func NewWire(eng *sim.Engine, ser, prop sim.Time, deliver func(*flit.Flit)) *Wire {
	w := &Wire{eng: eng, ser: ser, prop: prop, deliver: deliver, lane: eng.NewLane()}
	w.sink = w.arrive
	return w
}

// arrive is the wire's arrival sink: the fault hook, then the receiver.
func (w *Wire) arrive(x interface{}) {
	f := x.(*flit.Flit)
	if w.FaultHook != nil {
		f.Image(flit.FEC)
		if w.FaultHook(f) {
			w.HookDropped++
			flit.Release(f)
			return
		}
	}
	w.deliver(f)
}

// Send transmits a flit. The caller relinquishes ownership: the flit may be
// corrupted in flight and is handed to the receiver.
func (w *Wire) Send(f *flit.Flit) { w.SendAfter(f, 0) }

// SendAfter transmits a flit whose serialization may start no earlier
// than `earliest`. Switches use it to fold their ingress-to-egress latency
// into the wire claim: the flit arrives exactly when a separate forward
// event at `earliest` followed by a Send would have delivered it, without
// paying that event.
func (w *Wire) SendAfter(f *flit.Flit, earliest sim.Time) {
	w.lane.AtArg(w.claim(earliest)+w.prop, w.sink, f)
}

// Reserve claims the wire for one flit starting no earlier than `earliest`
// without carrying it through an event, returning the arrival time the
// equivalent SendAfter would have delivered at — identical occupancy
// accounting (busy window, busy time, QueuePeak). Express traversal claims
// every wire of a route this way at injection; the claimed flit bypasses
// the wire's sink entirely, so callers must have proven that the sink
// would have been a pass-through (no FaultHook).
func (w *Wire) Reserve(earliest sim.Time) sim.Time { return w.claim(earliest) + w.prop }

// claim is the occupancy bookkeeping of SendAfter and Reserve:
// serialization starts at max(now, earliest, wire-free) and the wire is
// busy until start+ser. It returns the serialization end time.
func (w *Wire) claim(earliest sim.Time) sim.Time {
	floor := max(w.eng.Now(), earliest)
	start := max(floor, w.busyUntil)
	// Back-to-back claims each occupy exactly ser, so the queue depth is
	// the wait ahead of this claim in serialization slots, rounded up,
	// plus the claiming flit.
	depth := uint64(1)
	if wait := w.busyUntil - floor; wait > 0 && w.ser > 0 {
		depth += uint64((wait + w.ser - 1) / w.ser)
	}
	w.queuePeak = max(w.queuePeak, depth)
	w.busyUntil = start + w.ser
	w.busyTime += w.ser
	return w.busyUntil
}

// QueuePeak returns the high-water mark of the wire's serialization queue:
// the largest number of flits simultaneously waiting for or occupying the
// wire, observed at claim time (the claiming flit included) — the
// backpressure measurement of congestion scenarios.
func (w *Wire) QueuePeak() uint64 { return w.queuePeak }

// FreeAt returns the earliest time a new Send would begin serializing.
func (w *Wire) FreeAt() sim.Time { return max(w.busyUntil, w.eng.Now()) }

// Utilization returns the fraction of elapsed time the wire spent
// serializing flits.
func (w *Wire) Utilization() float64 {
	if w.eng.Now() == 0 {
		return 0
	}
	return float64(w.busyTime) / float64(w.eng.Now())
}
