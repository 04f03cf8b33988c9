// Package sim is a small discrete-event simulation engine with picosecond
// resolution, used to drive the link-layer and fabric models. It provides a
// deterministic event queue (stable FIFO ordering among same-time events);
// link.Wire builds the flit conduit — serialization, propagation, busy
// accounting — on top of it.
//
// The engine is single-threaded by design: determinism matters more than
// parallel speedup for protocol-correctness experiments, and a 256B flit
// every 2 ns means a single core simulates hundreds of thousands of flits
// per second of wall time, ample for every experiment in the paper.
package sim

import (
	"math"

	"repro/internal/headq"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// FlitTime is the serialization time of a 256B flit on a full-speed x16
// CXL 3.0 link (Section 7.2: "a ×16 link transmitting 256B flits every
// 2ns").
const FlitTime = 2 * Nanosecond

// event is the engine's one event form: at its time, sink(arg) runs.
// Long-lived senders (wires, link peers, the mesh) bind their sink once,
// so scheduling one allocates nothing; At and Schedule carry a func() as
// the arg of runFunc.
type event struct {
	at   Time
	seq  uint64 // tie-break: schedule order
	sink func(interface{})
	arg  interface{}
}

// runFunc is the sink of At/Schedule events. A func value is
// pointer-shaped, so boxing it in arg does not allocate.
func runFunc(fn interface{}) { fn.(func())() }

// before reports the strict (at, seq) ordering between events.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventHeap is a hand-rolled binary min-heap on (at, seq). container/heap
// would box every event through interface{} on Push/Pop — one allocation
// per scheduled event — so the sift operations are written out instead.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release references for GC
	q = q[:n]
	*h = q
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&q[i]) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine.
//
// The queue is a two-lane structure tuned for the simulator's dominant
// pattern — long stretches of near-monotone schedule times (every flit
// delivery and pump wakeup lands at or just under the previously
// scheduled tail). Those events live in a sorted ring dispatched by a
// bulk pump in O(1) per event, with pushes landing slightly below the
// tail accepted by bounded insertion; genuinely out-of-order schedules
// (scripted scenario events, deep reorders) fall back to a binary heap.
// Dispatch merges the two lanes under the strict (time, schedule-order)
// total order, so the hybrid is observationally identical to a single
// priority queue.
type Engine struct {
	now     Time
	events  eventHeap // out-of-order lane
	fifo    []event   // sorted lane: times non-decreasing from fifoPos
	fifoPos int       // index of the sorted lane's head
	seq     uint64
	stopped bool
	// Executed counts dispatched events, a cheap progress metric.
	Executed uint64
}

// NewEngine returns an engine at time 0 with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn after delay (>= 0) simulation time. Events scheduled for
// the same instant run in schedule order.
func (e *Engine) Schedule(delay Time, fn func()) { e.ScheduleArg(delay, runFunc, fn) }

// ScheduleArg runs sink(arg) after delay (>= 0) simulation time.
func (e *Engine) ScheduleArg(delay Time, sink func(interface{}), arg interface{}) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.AtArg(e.now+delay, sink, arg)
}

// At runs fn at absolute time t (>= Now).
func (e *Engine) At(t Time, fn func()) { e.AtArg(t, runFunc, fn) }

// AtArg runs sink(arg) at absolute time t (>= Now). With a sink bound once
// per sender and a pointer arg, the event allocates nothing.
func (e *Engine) AtArg(t Time, sink func(interface{}), arg interface{}) {
	e.push(event{at: t, seq: e.seq, sink: sink, arg: arg})
}

func (e *Engine) push(ev event) {
	if ev.at < e.now {
		panic("sim: scheduling into the past")
	}
	e.seq++
	e.fifo, e.fifoPos = headq.Compact(e.fifo, e.fifoPos)
	n := len(e.fifo)
	if n == e.fifoPos || ev.at >= e.fifo[n-1].at {
		e.fifo = append(e.fifo, ev)
		return
	}
	// The new event lands below the sorted lane's tail. The dominant
	// patterns land *just* below it: pump wakeups scheduled a couple of
	// nanoseconds under in-flight deliveries, and stream events pushed
	// beneath a standing backstop timer (link retry, ACK timeout) parked
	// at the tail. Deflecting those to the heap would make every flit
	// delivery pay a sift, so the tail accepts them by bounded insertion:
	// scan back a few slots for the insertion point and shift the tail
	// right. Equal times insert after — the new event carries the largest
	// seq, preserving FIFO order. Past the window the order really is
	// mixed, and the event goes to the heap.
	lo := n - fifoInsertWindow
	if lo < e.fifoPos {
		lo = e.fifoPos
	}
	j := n
	for j > lo && ev.at < e.fifo[j-1].at {
		j--
	}
	if j > lo || j == e.fifoPos || ev.at >= e.fifo[j-1].at {
		e.fifo = append(e.fifo, event{})
		copy(e.fifo[j+1:], e.fifo[j:n])
		e.fifo[j] = ev
		return
	}
	e.events.push(ev)
}

// fifoInsertWindow bounds how far below the sorted lane's tail a push may
// insert. It needs to cover the few distinct schedule offsets live at
// once (pump wakeup, per-hop delivery, a standing timer or two); past
// that, heap order is genuinely cheaper than shifting.
const fifoInsertWindow = 8

// Stop makes the current Run/AdvanceTo call return after
// the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// maxTime is the unbounded dispatch horizon.
const maxTime = Time(math.MaxInt64)

// Run dispatches events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.run(maxTime) }

// AdvanceTo is the bulk-advance pump: it dispatches every event with a
// timestamp <= t (events scheduled at t included) in strict (time,
// schedule-order) order, then jumps the clock to exactly t. Stretches with no pending events are crossed in one
// assignment — the clock is driven by the schedule, not ticked — and runs
// of monotone events (the dominant pattern: flit deliveries and pump
// wakeups land at or after the previously scheduled tail) dispatch in a
// tight loop with no per-event lane merge.
func (e *Engine) AdvanceTo(t Time) {
	e.run(t)
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// run dispatches events with timestamps <= limit until the queue is
// exhausted past the limit or Stop is called.
func (e *Engine) run(limit Time) {
	e.stopped = false
	for !e.stopped {
		// Bulk pump: dispatch the monotone lane in a tight loop for as
		// long as it precedes the heap head — one compare per event, no
		// heap traffic. A dispatched handler can push into either lane
		// (and compact the FIFO), so every loop state is re-read per
		// iteration rather than cached.
		for e.fifoPos < len(e.fifo) && !e.stopped {
			ev := e.fifo[e.fifoPos]
			// Past the limit or behind the heap head: the heap may still
			// hold earlier events within the limit.
			if ev.at > limit {
				break
			}
			if len(e.events) > 0 && !ev.before(&e.events[0]) {
				break
			}
			e.fifo[e.fifoPos] = event{} // release references for GC
			e.fifoPos++
			e.now = ev.at
			e.Executed++
			ev.sink(ev.arg)
		}
		// The sorted lane is empty, past the limit, or behind the heap
		// head: in every case the heap head is the next event overall, so
		// it runs if it is due and otherwise nothing is.
		if e.stopped || len(e.events) == 0 || e.events[0].at > limit {
			return
		}
		ev := e.events.pop()
		e.now = ev.at
		e.Executed++
		ev.sink(ev.arg)
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) + len(e.fifo) - e.fifoPos }
