package link

import (
	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/rs"
	"repro/internal/sim"
)

// Wire is a unidirectional flit conduit: a sim.Pipe with an optional
// bit-error channel applied in flight and an optional scripted fault hook
// used by the deterministic failure-scenario experiments (Figs. 4–5).
//
// The wire is where the error-event fast path forks: a clean flit whose
// hop channel schedules no error event within the next 2048 bits passes
// by reference — the channel advances in O(1), no image byte is read or
// written. Any flit the schedule does touch is first materialized (its
// deferred CRC/FEC computed) so the byte-level corruption, and everything
// downstream of it, is bit-identical to the always-slow reference.
type Wire struct {
	pipe *sim.Pipe

	// Channel, when non-nil, corrupts every flit image in flight
	// according to its BER/burst model.
	Channel *phy.Channel

	// PathSched, when non-nil, replaces Channel with a shared path
	// schedule: every wire of one source→destination path holds the same
	// SharedSchedule and each crossing consumes one unit of its stream.
	// On the wire where traversals begin (PathHops > 0) a clean window
	// grants the flit a path pass covering the whole traversal, so the
	// remaining wires skip channel work entirely. The grant policy is
	// part of the channel model — it applies identically whether flits
	// ride the fast path or the byte-level reference.
	PathSched *phy.SharedSchedule
	// PathHops, on the injection wire of a path, is the total number of
	// wire crossings (this one included) a traversal spans. Zero marks a
	// mid-path wire.
	PathHops int

	// FaultHook, when non-nil, inspects each (possibly corrupted) flit at
	// arrival; returning true drops the flit silently — the scripted
	// equivalent of a switch discarding an uncorrectable flit. Hooked
	// wires force every flit onto the byte-level path: the hook may
	// mutate the image, so the clean mark cannot be trusted past it.
	FaultHook func(*flit.Flit) bool

	// Volatile marks a wire whose FaultHook a fault script may install or
	// remove mid-run. An express claim is immutable once taken — the
	// traversal's only event is the final delivery, so a hook appearing
	// after claim time would be silently skipped. Express claims therefore
	// never cross a volatile wire; campaigns set the flag before the run
	// (deterministically, traffic-independently), so fast and byte-level
	// runs fall back on exactly the same traversals.
	Volatile bool

	// HookDropped counts flits dropped by FaultHook.
	HookDropped uint64

	// fec materializes deferred seals when the channel or a fault hook
	// needs the byte-complete image; built lazily since clean traffic on
	// an error-free wire never needs it.
	fec *rs.Interleaved
}

// NewWire builds a wire delivering flits to deliver after serialization and
// propagation delay. Use sim.FlitTime (2 ns) as the serialization delay of a
// full-speed x16 CXL 3.0 link.
func NewWire(eng *sim.Engine, ser, prop sim.Time, deliver func(*flit.Flit)) *Wire {
	w := &Wire{}
	w.pipe = &sim.Pipe{
		Engine:             eng,
		SerializationDelay: ser,
		PropagationDelay:   prop,
		Sink: func(x interface{}) {
			f := x.(*flit.Flit)
			switch {
			case w.PathSched != nil:
				if w.PathHops > 0 {
					BeginPathTraversal(w.PathSched, w.fecLazy(), f, w.PathHops)
				} else if !f.TakePathPass() {
					CrossPathUnit(w.PathSched, w.fecLazy(), f)
				}
			case w.Channel != nil:
				if f.Clean() && w.Channel.NextEvent() >= flit.Bits {
					// Fast path: the schedule proves this flit crosses
					// untouched. Account the bits and move on.
					w.Channel.Advance(flit.Bits)
				} else {
					w.materialize(f)
					if w.Channel.Corrupt(f.Raw[:]) > 0 {
						f.Taint()
					}
				}
			}
			if w.FaultHook != nil {
				w.materialize(f)
				f.Taint()
				if w.FaultHook(f) {
					w.HookDropped++
					flit.Release(f)
					return
				}
			}
			deliver(f)
		},
	}
	return w
}

// materialize computes a deferred seal so byte-level processing sees the
// complete image. No-op for eagerly sealed flits.
func (w *Wire) materialize(f *flit.Flit) {
	if !f.Deferred() {
		return
	}
	f.Materialize(w.fecLazy())
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
// advance when the unit is clean, a materialize-and-corrupt when the
// schedule strikes it.
func CrossPathUnit(s *phy.SharedSchedule, fec *rs.Interleaved, f *flit.Flit) {
	if s.CrossClean() {
		s.Advance()
		return
	}
	f.Materialize(fec)
	if s.Corrupt(f.Raw[:]) > 0 {
		f.Taint()
	}
}

// Send transmits a flit. The caller relinquishes ownership: the flit may be
// corrupted in flight and is handed to the receiver.
func (w *Wire) Send(f *flit.Flit) { w.pipe.Send(f) }

// SendAfter transmits a flit whose serialization may start no earlier
// than `earliest` — the switch-latency fold (sim.Pipe.SendAt).
func (w *Wire) SendAfter(f *flit.Flit, earliest sim.Time) { w.pipe.SendAt(f, earliest) }

// Reserve claims the wire for one flit starting no earlier than `earliest`
// without carrying it through an event, returning the arrival time the
// equivalent SendAfter would have delivered at. Express traversal claims
// every wire of a route this way at injection; the claimed flit bypasses
// the wire's sink entirely, so callers must have proven via
// ExpressClaimable that the sink would have been a pass-through.
func (w *Wire) Reserve(earliest sim.Time) sim.Time { return w.pipe.Reserve(earliest) }

// ExpressClaimable reports whether an express traversal may claim this
// wire: no per-wire channel or path schedule (the mesh drives shared
// schedules from its arrival sinks — a wire-attached error model would be
// skipped by the claim) and no scripted fault hook installed or pending
// (Volatile). In-flight flits do not block a claim — claims queue FIFO on
// the wire's busy window, and per-path delivery order (ISN's ground rule)
// is the fabric's concern: it claims every flit of a claimable route at
// injection, so claim order is injection order.
func (w *Wire) ExpressClaimable() bool {
	return w.Channel == nil && w.PathSched == nil && w.FaultHook == nil && !w.Volatile
}

// QueuePeak returns the high-water mark of the wire's serialization
// queue depth — the backpressure measurement of congestion scenarios.
func (w *Wire) QueuePeak() uint64 { return w.pipe.QueuePeak }

// FreeAt returns the earliest time a new Send would begin serializing.
func (w *Wire) FreeAt() sim.Time { return w.pipe.FreeAt() }

// BusyTime returns cumulative serialization occupancy.
func (w *Wire) BusyTime() sim.Time { return w.pipe.BusyTime }

// Sent returns the number of flits accepted by the wire.
func (w *Wire) Sent() uint64 { return w.pipe.Sent }

// Utilization returns the fraction of elapsed time the wire spent
// serializing flits.
func (w *Wire) Utilization() float64 { return w.pipe.Utilization() }
