package link

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
)

// discard is the deliver function of wires whose arrivals a test ignores.
func discard(*flit.Flit) {}

func TestWireDelays(t *testing.T) {
	e := sim.NewEngine()
	var arrivals []sim.Time
	var got []*flit.Flit
	w := NewWire(e, 2*sim.Nanosecond, 10*sim.Nanosecond, func(f *flit.Flit) {
		arrivals = append(arrivals, e.Now())
		got = append(got, f)
	})
	a, b := new(flit.Flit), new(flit.Flit)
	w.Send(a) // ser 0-2ns, arrives 12ns
	w.Send(b) // ser 2-4ns, arrives 14ns
	e.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals %v", arrivals)
	}
	if arrivals[0] != 12*sim.Nanosecond || arrivals[1] != 14*sim.Nanosecond {
		t.Fatalf("arrival times %v", arrivals)
	}
	if got[0] != a || got[1] != b {
		t.Fatalf("payload order %v", got)
	}
}

func TestWireSerializationQueuing(t *testing.T) {
	e := sim.NewEngine()
	w := NewWire(e, 5, 0, discard)
	w.Send(new(flit.Flit))
	end1 := w.FreeAt()
	w.Send(new(flit.Flit))
	end2 := w.FreeAt()
	if end1 != 5 || end2 != 10 {
		t.Fatalf("serialization ends %d, %d", end1, end2)
	}
	if w.FreeAt() != 10 {
		t.Fatalf("FreeAt %d", w.FreeAt())
	}
	e.Run()
	if w.busyTime != 10 {
		t.Fatalf("BusyTime %d", w.busyTime)
	}
}

func TestWireIdleGapNotCountedBusy(t *testing.T) {
	e := sim.NewEngine()
	w := NewWire(e, 2, 1, discard)
	w.Send(new(flit.Flit))
	e.Schedule(100, func() { w.Send(new(flit.Flit)) })
	e.Run()
	if w.busyTime != 4 {
		t.Fatalf("BusyTime %d, want 4", w.busyTime)
	}
	u := w.Utilization()
	want := 4.0 / float64(e.Now())
	if u != want {
		t.Fatalf("utilization %v, want %v", u, want)
	}
}

func TestWireInOrderUnderLoad(t *testing.T) {
	e := sim.NewEngine()
	var got []*flit.Flit
	w := NewWire(e, 3, 7, func(f *flit.Flit) { got = append(got, f) })
	sent := make([]*flit.Flit, 50)
	for i := range sent {
		f := new(flit.Flit)
		sent[i] = f
		e.Schedule(sim.Time(i), func() { w.Send(f) })
	}
	e.Run()
	if len(got) != 50 {
		t.Fatalf("got %d", len(got))
	}
	for i, f := range got {
		if f != sent[i] {
			t.Fatalf("out of order at %d", i)
		}
	}
	if w.busyTime != 50*3 {
		t.Fatalf("BusyTime %d", w.busyTime)
	}
}

func TestWireUtilizationZeroTime(t *testing.T) {
	w := NewWire(sim.NewEngine(), 1, 0, discard)
	if w.Utilization() != 0 {
		t.Fatal("utilization at t=0 should be 0")
	}
}

// TestWireReserveMatchesSendTiming: Reserve claims the wire exactly as
// SendAfter does — same serialization window, same busy accounting, same
// arrival arithmetic — without scheduling a delivery event, so express
// claims and hop-by-hop sends interleave on one wire with identical
// timing in either order.
func TestWireReserveMatchesSendTiming(t *testing.T) {
	e := sim.NewEngine()
	var arrivals []sim.Time
	w := NewWire(e, 3, 7, func(*flit.Flit) { arrivals = append(arrivals, e.Now()) })
	a1 := w.Reserve(0)             // ser 0-3, arrival 10
	w.SendAfter(new(flit.Flit), 0) // queues behind the claim: ser 3-6, arrival 13
	end := w.FreeAt()
	a2 := w.Reserve(0) // ser 6-9, arrival 16
	if a1 != 10 || end != 6 || a2 != 16 {
		t.Fatalf("reserve/send/reserve = %d/%d/%d, want 10/6/16", a1, end, a2)
	}
	e.Run()
	if len(arrivals) != 1 || arrivals[0] != 13 {
		t.Fatalf("send arrivals %v, want [13]", arrivals)
	}
	if w.busyTime != 9 {
		t.Fatalf("BusyTime %d, want 9", w.busyTime)
	}
}

// TestWireReserveHonorsEarliest: a reservation respects the earliest
// bound the same way SendAfter does.
func TestWireReserveHonorsEarliest(t *testing.T) {
	w := NewWire(sim.NewEngine(), 2, 5, discard)
	if a := w.Reserve(100); a != 107 {
		t.Fatalf("arrival %d, want 107", a)
	}
	if w.FreeAt() != 102 {
		t.Fatalf("FreeAt %d, want 102", w.FreeAt())
	}
}

// TestWireQueuePeak: QueuePeak records the deepest serialization backlog
// (claiming flit included) and never decays as the queue drains.
func TestWireQueuePeak(t *testing.T) {
	e := sim.NewEngine()
	w := NewWire(e, 2, 1, discard)
	if w.QueuePeak() != 0 {
		t.Fatalf("initial QueuePeak %d", w.QueuePeak())
	}
	w.Send(new(flit.Flit))
	if w.QueuePeak() != 1 {
		t.Fatalf("QueuePeak %d after uncontended send, want 1", w.QueuePeak())
	}
	w.Send(new(flit.Flit))
	w.Send(new(flit.Flit))
	if w.QueuePeak() != 3 {
		t.Fatalf("QueuePeak %d after burst of 3, want 3", w.QueuePeak())
	}
	e.Run()
	w.Send(new(flit.Flit)) // wire is idle again: depth 1, high-water mark stays
	if w.QueuePeak() != 3 {
		t.Fatalf("QueuePeak %d after drain, want 3", w.QueuePeak())
	}
}
