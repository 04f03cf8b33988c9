package sim

import (
	"container/heap"
	"testing"
)

// scheduler is the surface FuzzEngineMatchesReference drives: the real
// Engine with its lanes, or refEngine.
type scheduler interface {
	now() Time
	oneOff(t Time, fn func())
	lane(i int, t Time, fn func())
	advanceTo(t Time)
	run()
	stop()
	pending() int
	executed() uint64
}

// engineSched adapts Engine; lane i is its own Lane.
type engineSched struct {
	e     *Engine
	lanes []*Lane
}

func (s *engineSched) now() Time                     { return s.e.Now() }
func (s *engineSched) oneOff(t Time, fn func())      { s.e.At(t, fn) }
func (s *engineSched) lane(i int, t Time, fn func()) { s.lanes[i].AtArg(t, runFunc, fn) }
func (s *engineSched) advanceTo(t Time)              { s.e.AdvanceTo(t) }
func (s *engineSched) run()                          { s.e.Run() }
func (s *engineSched) stop()                         { s.e.Stop() }
func (s *engineSched) pending() int                  { return s.e.Pending() }
func (s *engineSched) executed() uint64              { return s.e.Executed }

// refEngine is the reference: every event, lane or one-off, in one plain
// binary heap on (at, seq).
type refEngine struct {
	t       Time
	seq     uint64
	q       refQueue
	stopped bool
	n       uint64
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

func (r *refEngine) now() Time { return r.t }
func (r *refEngine) oneOff(t Time, fn func()) {
	heap.Push(&r.q, refEvent{at: t, seq: r.seq, fn: fn})
	r.seq++
}
func (r *refEngine) lane(_ int, t Time, fn func()) { r.oneOff(t, fn) }
func (r *refEngine) advanceTo(t Time) {
	r.drain(t)
	if !r.stopped && r.t < t {
		r.t = t
	}
}
func (r *refEngine) run()             { r.drain(maxTime) }
func (r *refEngine) stop()            { r.stopped = true }
func (r *refEngine) pending() int     { return len(r.q) }
func (r *refEngine) executed() uint64 { return r.n }
func (r *refEngine) drain(limit Time) {
	r.stopped = false
	for !r.stopped && len(r.q) > 0 && r.q[0].at <= limit {
		ev := heap.Pop(&r.q).(refEvent)
		r.t = ev.at
		r.n++
		ev.fn()
	}
}

// mix is splitmix64's finalizer: the program's per-event decisions are a
// pure function of (seed, event id), so two schedulers that dispatch in
// the same order make the same decisions.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// fuzzProgram is one seeded event program: every dispatched event logs
// (time, id), may Stop the drive, and schedules up to three children onto
// a lane (at or after that lane's last push) or as one-off events. Deltas
// of zero make equal-time ties within and across the two.
type fuzzProgram struct {
	s            scheduler
	seed         uint64
	oneOffPct    uint64
	spread       uint64
	stopEvery    int
	laneLast     []Time
	next, budget int
	log          []dispatch
}

type dispatch struct {
	at Time
	id int
}

func (p *fuzzProgram) schedule(h uint64) {
	if p.next >= p.budget {
		return
	}
	id := p.next
	p.next++
	fn := func() { p.fire(id) }
	t := p.s.now() + Time(h>>8%(p.spread+1))
	if len(p.laneLast) > 0 && h%100 >= p.oneOffPct {
		i := int(h >> 40 % uint64(len(p.laneLast)))
		t = max(t, p.laneLast[i])
		p.laneLast[i] = t
		p.s.lane(i, t, fn)
		return
	}
	p.s.oneOff(t, fn)
}

func (p *fuzzProgram) fire(id int) {
	p.log = append(p.log, dispatch{at: p.s.now(), id: id})
	h := mix(p.seed ^ uint64(id)<<20)
	if p.stopEvery > 0 && id%p.stopEvery == 0 {
		p.s.stop()
	}
	for k := uint64(0); k < h%4; k++ {
		p.schedule(mix(h + k))
	}
}

// FuzzEngineMatchesReference holds the engine's lane/one-off merge to a
// single binary heap: a seeded mix of lane producers and one-off events —
// equal-time ties, events scheduled from handlers, Stop, and drives by Run
// or by AdvanceTo steps — must dispatch in the same (time, id) order, with
// the same clock, Executed and Pending after every drive call.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(30), uint8(5), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, lanes, oneOffPct, spread, stopEvery uint8, advance uint16) {
		build := func(s scheduler) *fuzzProgram {
			p := &fuzzProgram{
				s: s, seed: seed, oneOffPct: uint64(oneOffPct % 101), spread: uint64(spread),
				stopEvery: int(stopEvery), laneLast: make([]Time, lanes%8), budget: 600,
			}
			for k := uint64(0); k < 16; k++ {
				p.schedule(mix(seed + k))
			}
			return p
		}
		e := NewEngine()
		es := &engineSched{e: e}
		for range lanes % 8 {
			es.lanes = append(es.lanes, e.NewLane())
		}
		got, want := build(es), build(&refEngine{})
		for step := 0; got.s.pending() > 0 || want.s.pending() > 0; step++ {
			for _, p := range []*fuzzProgram{got, want} {
				if advance == 0 {
					p.s.run()
				} else {
					p.s.advanceTo(p.s.now() + Time(advance))
				}
			}
			if len(got.log) != len(want.log) {
				t.Fatalf("drive %d: %d dispatches, reference %d", step, len(got.log), len(want.log))
			}
			for i := range got.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("drive %d: dispatch %d is %+v, reference %+v", step, i, got.log[i], want.log[i])
				}
			}
			got.log, want.log = got.log[:0], want.log[:0]
			if got.s.now() != want.s.now() || got.s.executed() != want.s.executed() || got.s.pending() != want.s.pending() {
				t.Fatalf("drive %d: now/executed/pending %d/%d/%d, reference %d/%d/%d", step,
					got.s.now(), got.s.executed(), got.s.pending(), want.s.now(), want.s.executed(), want.s.pending())
			}
		}
	})
}
