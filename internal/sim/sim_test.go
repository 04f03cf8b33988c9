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

// TestPushBeyondInsertWindowGoesToHeap pins the lane-routing boundary the
// mixed engine benchmark relies on: an out-of-order push within
// fifoInsertWindow slots of the tail stays in the sorted lane; one deeper
// than the window reaches the heap.
func TestPushBeyondInsertWindowGoesToHeap(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {})
	e.At(50, func() {}) // 1-deep lane: absorbed by tail insertion
	if len(e.events) != 0 {
		t.Fatal("shallow out-of-order push escaped the sorted lane")
	}

	e = NewEngine()
	for j := Time(0); j < 12; j++ {
		e.Schedule(4+2*j, func() {})
	}
	e.At(1, func() {}) // 12-deep lane: beyond the window → heap
	if len(e.events) != 1 {
		t.Fatalf("deep out-of-order push not in heap (heap len %d)", len(e.events))
	}
	var order []Time
	e.At(1, func() { order = append(order, 1) })
	e.Schedule(4, func() { order = append(order, 4) })
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 4 {
		t.Fatalf("heap/lane merge order wrong: %v", order)
	}
}

// TestAdvanceToHeapBeforeFIFOHead: an out-of-order event earlier than
// the sorted lane's head must dispatch within an AdvanceTo whose limit
// excludes the lane head — the pump may not conclude "past the limit"
// from the lane alone.
func TestAdvanceToHeapBeforeFIFOHead(t *testing.T) {
	e := NewEngine()
	var ran []Time
	// Ten lane events at 100.. so the 50 push falls outside the bounded
	// tail-insertion window and genuinely lands in the heap.
	for i := 0; i < 10; i++ {
		at := Time(100 + i)
		e.At(at, func() { ran = append(ran, at) })
	}
	e.At(50, func() { ran = append(ran, 50) })
	e.AdvanceTo(60)
	if len(ran) != 1 || ran[0] != 50 {
		t.Fatalf("ran %v, want just the heap event at 50", ran)
	}
	e.Run()
	if len(ran) != 11 {
		t.Fatalf("ran %d events total", len(ran))
	}
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
// chains so the monotone lane never fully drains: at every push another
// monotone event is still pending, the drained-reset in push never fires,
// and before compaction the lane grew by one slot per dispatched event.
// The backing array must stay O(pending), not O(total events dispatched).
func TestFIFOLaneCompaction(t *testing.T) {
	e := NewEngine()
	const total = 100000
	var ran [2]int
	var chain [2]func()
	for i := range chain {
		i := i
		chain[i] = func() {
			ran[i]++
			if ran[i] < total/2 {
				e.Schedule(1, chain[i])
			}
		}
	}
	e.Schedule(0, chain[0])
	e.Schedule(0, chain[1])
	e.Run()
	if ran[0] != total/2 || ran[1] != total/2 {
		t.Fatalf("chains ran %v, want %d each", ran, total/2)
	}
	if e.Executed != total {
		t.Fatalf("executed %d, want %d", e.Executed, total)
	}
	if c := cap(e.fifo); c > 1024 {
		t.Fatalf("fifo backing array grew to %d slots for %d events; dispatched prefix not reclaimed", c, total)
	}
}
