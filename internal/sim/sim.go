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
	"math/bits"

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

// less is the strict (at, seq) order between keys, 1 when a is before b
// and 0 otherwise. It reads the borrow out of the 128-bit subtraction
// a − b, with at as the high word — sign-flipped so that signed times
// compare as unsigned words — and seq as the low word. The result is a
// word, not a branch: the heaps' sifts add it to a child index, so the
// near-random outcome of comparing siblings costs no misprediction.
func less(a, b key) uint64 {
	const sign = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^sign, uint64(b.at)^sign, borrow)
	return borrow
}

// entry is a heap entry: a key and the index of what it orders — a lane
// in Engine.byID or a one-off event's slot in Engine.calls. It holds no
// pointer, so a sift moves plain words and the GC never sees it.
type entry struct {
	key
	i int32
}

// entryHeap is a hand-rolled binary min-heap of entries under less.
// container/heap would box every entry through interface{} on Push/Pop,
// so the sifts are written out; each moves the sifted entry through a
// hole instead of swapping.
type entryHeap []entry

func (h *entryHeap) push(x entry) {
	*h = append(*h, x)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if less(x.key, q[parent].key) == 0 {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
}

// removeRoot drops the root entry and restores the heap order.
func (h *entryHeap) removeRoot() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	h.down()
}

// down sifts the root entry to its place, after its key has grown or it
// has been replaced.
func (h entryHeap) down() {
	n := len(h)
	if n == 0 {
		return
	}
	x := h[0]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n {
			child += int(less(h[r].key, h[child].key))
		}
		if less(h[child].key, x.key) == 0 {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = x
}

// call is a pending one-off event's sink and arg, parked in the engine's
// slot table while its entry sits in the one-off heap.
type call struct {
	sink func(interface{})
	arg  interface{}
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
	events  entryHeap // one-off events, indexing calls
	lanes   entryHeap // the head of every non-empty lane, indexing byID
	calls   []call    // one-off event slots; a slot is free while on free
	free    []int32   // free slots of calls
	byID    []*Lane   // every lane of the engine, by its id
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
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
		e.calls[i] = call{sink, arg}
	} else {
		i = int32(len(e.calls))
		e.calls = append(e.calls, call{sink, arg})
	}
	e.events.push(entry{key: e.stamp(t), i: i})
}

// stamp returns the key of a new event at t, numbered with the next
// schedule-order number.
func (e *Engine) stamp(t Time) key {
	if t < e.now {
		panic("sim: scheduling into the past")
	}
	k := key{at: t, seq: e.seq}
	e.seq++
	return k
}

// popEvent takes the earliest one-off event off its heap, returning its
// slot to the free list.
func (e *Engine) popEvent() (Time, call) {
	top := e.events[0]
	c := e.calls[top.i]
	e.calls[top.i] = call{} // release references for GC
	e.free = append(e.free, top.i)
	e.events.removeRoot()
	return top.at, c
}

// Lane is a producer handle for one in-order event stream: its events
// must be pushed at non-decreasing times, and however deep its backlog it
// holds one entry in the engine's lane heap. A wire's arrivals and a
// route's express deliveries are lanes.
type Lane struct {
	e    *Engine
	id   int32   // index in e.byID, the lane's heap entries carry it
	buf  []event // pending events from head on, times non-decreasing
	head int     // consumed prefix of buf; reclaimed by headq.Compact
	last Time    // time of the latest push
}

// NewLane returns a new, empty lane of the engine.
func (e *Engine) NewLane() *Lane {
	l := &Lane{e: e, id: int32(len(e.byID))}
	e.byID = append(e.byID, l)
	return l
}

// AtArg runs sink(arg) at absolute time t, which must be >= Now and no
// earlier than the lane's previous push; an earlier t panics.
func (l *Lane) AtArg(t Time, sink func(interface{}), arg interface{}) {
	if t < l.last {
		panic("sim: lane push below its last event")
	}
	l.last = t
	e := l.e
	k := e.stamp(t)
	l.buf, l.head = headq.Compact(l.buf, l.head)
	l.buf = append(l.buf, event{key: k, sink: sink, arg: arg})
	if len(l.buf)-l.head == 1 {
		e.lanes.push(entry{key: k, i: l.id})
	}
}

// advanceLane takes the head event off the root lane: the root's key
// moves to the lane's next event, or the root leaves the heap when the
// lane drains.
func (e *Engine) advanceLane() event {
	l := e.byID[e.lanes[0].i]
	ev := l.buf[l.head]
	l.buf[l.head] = event{} // release references for GC
	l.head++
	if l.head < len(l.buf) {
		e.lanes[0].key = l.buf[l.head].key
		e.lanes.down()
	} else {
		e.lanes.removeRoot()
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
// can push to either, so both are re-read every step. Each branch
// dispatches on its own: assembling one event from a one-off's slot for
// a shared tail cost ≈ 8 ns/event on BenchmarkEngineMeshShape.
func (e *Engine) run(limit Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.lanes) > 0 && (len(e.events) == 0 || less(e.lanes[0].key, e.events[0].key) != 0) {
			if e.lanes[0].at > limit {
				return
			}
			ev := e.advanceLane()
			e.now = ev.at
			e.Executed++
			ev.sink(ev.arg)
		} else {
			if len(e.events) == 0 || e.events[0].at > limit {
				return
			}
			at, c := e.popEvent()
			e.now = at
			e.Executed++
			c.sink(c.arg)
		}
	}
}

// Pending returns the number of queued events, lanes included.
func (e *Engine) Pending() int {
	n := len(e.events)
	for _, lh := range e.lanes {
		l := e.byID[lh.i]
		n += len(l.buf) - l.head
	}
	return n
}
