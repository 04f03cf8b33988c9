package link

import (
	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/rs"
	"repro/internal/sim"
)

// Wire is a unidirectional flit conduit: each send occupies the wire for
// its serialization delay (back-to-back sends queue FIFO behind each
// other) and then propagates before the receiver gets the flit. In flight
// a flit crosses the wire's path schedule, if any, and an optional
// scripted fault hook used by the deterministic failure-scenario
// experiments (Figs. 4–5).
//
// The error-event fast path forks at the path schedule: a clean
// whole-traversal window grants the flit a pass, and a granted or clean
// crossing advances the schedule in O(1) without reading or writing an
// image byte. A crossing the schedule strikes first materializes the flit
// (its deferred CRC/FEC computed), so the byte-level corruption, and
// everything downstream of it, is bit-identical to the always-slow
// reference.
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

	// PathSched, when non-nil, is the wire's error model: a shared path
	// schedule every wire of one source→destination path holds, each
	// crossing consuming one unit of its stream. On the wire where
	// traversals begin (PathHops > 0) a clean window grants the flit a
	// path pass covering the whole traversal, so the remaining wires skip
	// channel work entirely. The grant policy is part of the channel model
	// — it applies identically whether flits ride the fast path or the
	// byte-level reference. A lone wire is a one-hop path (PathHops = 1).
	PathSched *phy.SharedSchedule
	// PathHops, on the injection wire of a path, is the total number of
	// wire crossings (this one included) a traversal spans. Zero marks a
	// mid-path wire.
	PathHops int

	// FaultHook, when non-nil, inspects each (possibly corrupted) flit at
	// arrival; returning true drops the flit silently — the scripted
	// equivalent of a switch discarding an uncorrectable flit. Hooked
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

	// fec materializes deferred seals when the schedule or a fault hook
	// needs the byte-complete image; built lazily since clean traffic on
	// an error-free wire never needs it.
	fec *rs.Interleaved
}

// NewWire builds a wire delivering flits to deliver after serialization and
// propagation delay. Use sim.FlitTime (2 ns) as the serialization delay of a
// full-speed x16 CXL 3.0 link.
func NewWire(eng *sim.Engine, ser, prop sim.Time, deliver func(*flit.Flit)) *Wire {
	w := &Wire{eng: eng, ser: ser, prop: prop, deliver: deliver, lane: eng.NewLane()}
	w.sink = w.arrive
	return w
}

// arrive is the wire's arrival sink: the path-schedule crossing, then the
// fault hook, then the receiver.
func (w *Wire) arrive(x interface{}) {
	f := x.(*flit.Flit)
	if w.PathSched != nil {
		if w.PathHops > 0 {
			BeginPathTraversal(w.PathSched, w.fecLazy(), f, w.PathHops)
		} else if !f.TakePathPass() {
			CrossPathUnit(w.PathSched, w.fecLazy(), f)
		}
	}
	if w.FaultHook != nil {
		f.Image(w.fecLazy())
		if w.FaultHook(f) {
			w.HookDropped++
			flit.Release(f)
			return
		}
	}
	w.deliver(f)
}

// fecLazy returns the wire's FEC codec, building it on first use — clean
// traffic on an error-free wire never needs one.
func (w *Wire) fecLazy() *rs.Interleaved {
	if w.fec == nil {
		w.fec = flit.NewFEC()
	}
	return w.fec
}

// BeginPathTraversal opens a flit's traversal of a shared-schedule path at
// its injection crossing. A clean whole-traversal window consumes all
// hops×flit.Bits up front, grants the flit a pass for the remaining
// hops-1 crossings, and returns true; otherwise only this crossing is
// consumed — byte-level when the schedule strikes it — and false is
// returned. The decision depends only on the schedule — never on the
// flit's fast-path marks — so fast and byte-level runs consume the stream
// identically. The grant verdict is what express traversal keys on: a
// granted flit's whole mesh timing is deterministic at injection.
func BeginPathTraversal(s *phy.SharedSchedule, fec *rs.Interleaved, f *flit.Flit, hops int) bool {
	if s.Begin(hops) {
		f.SetPathPass(hops - 1)
		return true
	}
	CrossPathUnit(s, fec, f)
	return false
}

// CrossPathUnit consumes one shared-schedule crossing for f: an O(1)
// advance when the unit is clean, a strike on the flit's image when the
// schedule strikes it.
func CrossPathUnit(s *phy.SharedSchedule, fec *rs.Interleaved, f *flit.Flit) {
	if s.CrossClean() {
		s.Advance()
		return
	}
	s.Corrupt(f.Image(fec)[:])
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
// the wire's sink entirely, so callers must have proven via
// ExpressClaimable that the sink would have been a pass-through.
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

// ExpressClaimable reports whether an express traversal may claim this
// wire: no path schedule (the mesh drives shared schedules from its
// arrival sinks — a wire-attached error model would be skipped by the
// claim) and no scripted fault hook.
// In-flight flits do not block a claim — claims queue FIFO on the wire's
// busy window, and per-path delivery order (ISN's ground rule) is the
// fabric's concern: it claims every flit of a claimable route at
// injection, so claim order is injection order.
func (w *Wire) ExpressClaimable() bool {
	return w.PathSched == nil && w.FaultHook == nil
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
