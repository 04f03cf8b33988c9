// Package sim is a small discrete-event simulation engine with picosecond
// resolution, used to drive the link-layer and fabric models. It provides a
// deterministic event queue (stable FIFO ordering among same-time events)
// with monotone lanes for in-order event streams; link.Wire builds the
// flit conduit — serialization, propagation, busy accounting — on top of
// it.
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
	key
	sink func(interface{})
	arg  interface{}
}

// key is the dispatch order of an event: its time, ties broken by seq,
// the engine-wide schedule order.
type key struct {
	at  Time
	seq uint64
}

// runFunc is the sink of At/Schedule events. A func value is
// pointer-shaped, so boxing it in arg does not allocate.
func runFunc(fn interface{}) { fn.(func())() }

// before reports the strict (at, seq) ordering between keys.
func (k *key) before(o *key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
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
		if !q[i].before(&q[parent].key) {
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
		if r := child + 1; r < n && q[r].before(&q[child].key) {
			child = r
		}
		if !q[child].before(&q[i].key) {
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
// The queue is shaped by the simulator's dominant pattern: most events
// belong to an in-order stream — one wire's arrivals, one express route's
// deliveries — whose times never decrease. Each such stream is a Lane, a
// FIFO that dispatches in O(1), and the engine keeps a min-heap of the
// non-empty lanes keyed on their head events, so a stream costs one heap
// entry however deep its backlog. Everything else (pump wakeups, timers,
// scripted events) goes to the one-off heap. Dispatch takes the earlier
// of the two heap heads under the strict (time, schedule-order) total
// order, so the engine is observationally identical to a single priority
// queue.
type Engine struct {
	now     Time
	events  eventHeap // one-off events
	lanes   laneHeap  // the head of every non-empty lane
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
	e.events.push(e.event(t, sink, arg))
}

// event stamps a new event with the next schedule-order number.
func (e *Engine) event(t Time, sink func(interface{}), arg interface{}) event {
	if t < e.now {
		panic("sim: scheduling into the past")
	}
	ev := event{key: key{at: t, seq: e.seq}, sink: sink, arg: arg}
	e.seq++
	return ev
}

// Lane is a producer handle for one in-order event stream: its events
// must be pushed at non-decreasing times, and however deep its backlog it
// holds one entry in the engine's lane heap. A wire's arrivals and a
// route's express deliveries are lanes.
type Lane struct {
	e    *Engine
	buf  []event // pending events from head on, times non-decreasing
	head int     // consumed prefix of buf; reclaimed by headq.Compact
	last Time    // time of the latest push
}

// NewLane returns a new, empty lane of the engine.
func (e *Engine) NewLane() *Lane { return &Lane{e: e} }

// AtArg runs sink(arg) at absolute time t, which must be >= Now and no
// earlier than the lane's previous push; an earlier t panics.
func (l *Lane) AtArg(t Time, sink func(interface{}), arg interface{}) {
	if t < l.last {
		panic("sim: lane push below its last event")
	}
	l.last = t
	e := l.e
	ev := e.event(t, sink, arg)
	l.buf, l.head = headq.Compact(l.buf, l.head)
	l.buf = append(l.buf, ev)
	if len(l.buf)-l.head == 1 {
		e.lanes.push(laneHead{key: ev.key, l: l})
	}
}

// laneHead is a lane's entry in the engine's lane heap, keyed on the
// lane's head event.
type laneHead struct {
	key
	l *Lane
}

// laneHeap is a binary min-heap of lane heads, written out like eventHeap.
type laneHeap []laneHead

func (h *laneHeap) push(lh laneHead) {
	*h = append(*h, lh)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent].key) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// advance takes the head event off the root lane: the root's key moves to
// the lane's next event, or the root leaves the heap when the lane
// drains.
func (h *laneHeap) advance() event {
	q := *h
	l := q[0].l
	ev := l.buf[l.head]
	l.buf[l.head] = event{} // release references for GC
	l.head++
	if l.head < len(l.buf) {
		q[0].key = l.buf[l.head].key
	} else {
		n := len(q) - 1
		q[0] = q[n]
		q[n] = laneHead{}
		q = q[:n]
		*h = q
	}
	n := len(q)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child].key) {
			child = r
		}
		if !q[child].before(&q[i].key) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return ev
}

// Stop makes the current Run/AdvanceTo call return after
// the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// maxTime is the unbounded dispatch horizon.
const maxTime = Time(math.MaxInt64)

// Run dispatches events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.run(maxTime) }

// AdvanceTo is the bulk-advance pump: it dispatches every event with a
// timestamp <= t (events scheduled at t included) in strict (time,
// schedule-order) order, then jumps the clock to exactly t. Stretches
// with no pending events are crossed in one assignment — the clock is
// driven by the schedule, not ticked.
func (e *Engine) AdvanceTo(t Time) {
	e.run(t)
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// run dispatches events with timestamps <= limit until the queue is
// exhausted past the limit or Stop is called. Each step takes the earlier
// of the lane heap's and the one-off heap's heads; a dispatched handler
// can push to either, so both are re-read every step.
func (e *Engine) run(limit Time) {
	e.stopped = false
	for !e.stopped {
		var ev event
		if len(e.lanes) > 0 && (len(e.events) == 0 || e.lanes[0].before(&e.events[0].key)) {
			if e.lanes[0].at > limit {
				return
			}
			ev = e.lanes.advance()
		} else {
			if len(e.events) == 0 || e.events[0].at > limit {
				return
			}
			ev = e.events.pop()
		}
		e.now = ev.at
		e.Executed++
		ev.sink(ev.arg)
	}
}

// Pending returns the number of queued events, lanes included.
func (e *Engine) Pending() int {
	n := len(e.events)
	for _, lh := range e.lanes {
		n += len(lh.l.buf) - lh.l.head
	}
	return n
}
