package sim

import (
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final time %d", e.Now())
	}
	if e.Executed != 3 {
		t.Fatalf("executed %d", e.Executed)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times %v", times)
	}
}

func TestZeroDelayRunsAtCurrentTime(t *testing.T) {
	e := NewEngine()
	var ran bool
	e.Schedule(7, func() {
		e.Schedule(0, func() {
			if e.Now() != 7 {
				t.Errorf("zero-delay event at %d", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("zero-delay event never ran")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.At(5, func() {})
}

// TestAdvanceToIncludesBoundary: events at exactly t run, later ones stay
// queued, and the clock lands on t.
func TestAdvanceToIncludesBoundary(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.AdvanceTo(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v", ran)
	}
	if e.Now() != 12 {
		t.Fatalf("clock %d, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d", e.Pending())
	}
	// Boundary: events exactly at t are included.
	e.AdvanceTo(15)
	if len(ran) != 3 {
		t.Fatalf("boundary event missed: %v", ran)
	}
	e.Run()
	if len(ran) != 4 || e.Now() != 20 {
		t.Fatalf("final: %v at %d", ran, e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 10 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 10 {
		t.Fatalf("ran %d events after Stop", count)
	}
	// Run again resumes.
	e.Run()
	if count != 100 {
		t.Fatalf("resume ran to %d", count)
	}
}

// trajectory runs a canonical mixed workload — two monotone event chains,
// an out-of-order timer that reschedules into the past-relative region, and
// nested zero-delay events — under the given drive function and records
// every dispatch as (time, id).
func trajectory(drive func(*Engine)) []Time {
	e := NewEngine()
	var log []Time
	var chain func()
	n := 0
	chain = func() {
		log = append(log, e.Now())
		n++
		if n < 500 {
			e.Schedule(3, chain)
			if n%7 == 0 {
				// Out-of-order backstop: lands before the monotone tail.
				e.At(e.Now()+1, func() { log = append(log, e.Now()+1000000) })
			}
			if n%11 == 0 {
				e.Schedule(0, func() { log = append(log, e.Now()+2000000) })
			}
		}
	}
	e.Schedule(0, chain)
	drive(e)
	return log
}

// TestDrainTrajectoryInvariant is the bulk-advance determinism bar: the
// dispatch trajectory must be identical whether the queue is drained by
// Run, by AdvanceTo in one jump, or by AdvanceTo in steps of any size.
func TestDrainTrajectoryInvariant(t *testing.T) {
	ref := trajectory(func(e *Engine) { e.Run() })
	if len(ref) == 0 {
		t.Fatal("reference trajectory empty")
	}
	stepped := func(step Time) func(*Engine) {
		return func(e *Engine) {
			for e.Pending() > 0 {
				e.AdvanceTo(e.Now() + step)
			}
		}
	}
	drivers := map[string]func(*Engine){
		"AdvanceToOnce": func(e *Engine) { e.AdvanceTo(maxTime - 1) },
		"Step1":         stepped(1),
		"Step2":         stepped(2),
		"Step17":        stepped(17),
		"StepHuge":      stepped(1 * Second),
	}
	for name, drive := range drivers {
		got := trajectory(drive)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d dispatches, want %d", name, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: dispatch %d at %d, want %d", name, i, got[i], ref[i])
			}
		}
	}
}

// TestAdvanceToJumpsIdleStretch: with nothing scheduled inside the span,
// the clock jumps in one assignment rather than ticking.
func TestAdvanceToJumpsIdleStretch(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(1*Second, func() { ran = true })
	e.AdvanceTo(1 * Millisecond)
	if ran || e.Now() != 1*Millisecond {
		t.Fatalf("ran=%v now=%d", ran, e.Now())
	}
	if e.Executed != 0 {
		t.Fatalf("executed %d events crossing an empty stretch", e.Executed)
	}
	e.AdvanceTo(2 * Second)
	if !ran || e.Now() != 2*Second {
		t.Fatalf("ran=%v now=%d", ran, e.Now())
	}
}

// TestAdvanceToHeapBeforeFIFOHead: a one-off event earlier than a lane's
// head must dispatch within an AdvanceTo whose limit excludes the lane
// head — the pump may not conclude "past the limit" from the lanes alone.
func TestAdvanceToHeapBeforeFIFOHead(t *testing.T) {
	e := NewEngine()
	lane := e.NewLane()
	var ran []Time
	record := func(x interface{}) { ran = append(ran, x.(Time)) }
	for i := 0; i < 10; i++ {
		at := Time(100 + i)
		lane.AtArg(at, record, at)
	}
	e.At(50, func() { ran = append(ran, 50) })
	e.AdvanceTo(60)
	if len(ran) != 1 || ran[0] != 50 {
		t.Fatalf("ran %v, want just the one-off event at 50", ran)
	}
	e.Run()
	if len(ran) != 11 {
		t.Fatalf("ran %d events total", len(ran))
	}
}

// TestLanePushBelowLastPanics: a lane is monotone by contract, so a push
// below its previous one is a bug in the producer, not a reorder.
func TestLanePushBelowLastPanics(t *testing.T) {
	e := NewEngine()
	lane := e.NewLane()
	noop := func(interface{}) {}
	lane.AtArg(10, noop, nil)
	lane.AtArg(10, noop, nil) // equal times are in order
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	lane.AtArg(9, noop, nil)
}

// TestBulkPumpHeapInterleave: out-of-order events pushed mid-drain must
// preempt later monotone events — the bulk pump may not run past them.
func TestBulkPumpHeapInterleave(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, func() {
		order = append(order, "a")
		// Out-of-order push during the monotone drain: must run before the
		// monotone events at 30 and 40.
		e.At(20, func() { order = append(order, "heap") })
	})
	e.Schedule(30, func() { order = append(order, "b") })
	e.Schedule(40, func() { order = append(order, "c") })
	e.Run()
	want := []string{"a", "heap", "b", "c"}
	if len(order) != len(want) {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%1000), fn)
		if e.Pending() > 10000 {
			e.AdvanceTo(e.Now() + 500)
		}
	}
	e.Run()
}

// TestFIFOLaneCompaction drives two interleaved self-perpetuating event
// chains on one lane so it never fully drains: at every push another event
// is still pending, the drained reset never fires, and without compaction
// the lane would grow by one slot per dispatched event. The backing array
// must stay O(pending), not O(total events dispatched).
func TestFIFOLaneCompaction(t *testing.T) {
	e := NewEngine()
	lane := e.NewLane()
	const total = 100000
	var ran [2]int
	var chain func(interface{})
	chain = func(x interface{}) {
		i := x.(int)
		ran[i]++
		if ran[i] < total/2 {
			lane.AtArg(e.Now()+1, chain, i)
		}
	}
	lane.AtArg(0, chain, 0)
	lane.AtArg(0, chain, 1)
	e.Run()
	if ran[0] != total/2 || ran[1] != total/2 {
		t.Fatalf("chains ran %v, want %d each", ran, total/2)
	}
	if e.Executed != total {
		t.Fatalf("executed %d, want %d", e.Executed, total)
	}
	if c := cap(lane.buf); c > 1024 {
		t.Fatalf("lane backing array grew to %d slots for %d events; dispatched prefix not reclaimed", c, total)
	}
}
