package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/flit"
)

func TestTagPayloadRoundTrip(t *testing.T) {
	f := func(tag uint64) bool {
		return TagOf(TagPayload(tag, 16)) == tag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTagPayloadMinimumSize(t *testing.T) {
	p := TagPayload(1, 0)
	if len(p) != 8 {
		t.Fatalf("len = %d, want 8", len(p))
	}
}

func TestTagPayloadPanicsOnOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TagPayload(0, flit.PayloadSize+1)
}

func TestCheckerCleanSequence(t *testing.T) {
	c := NewChecker()
	for i := uint64(0); i < 10; i++ {
		c.Deliver(TagPayload(i, 16))
	}
	if c.OutOfOrder != 0 || c.Duplicates != 0 || c.Delivered != 10 || c.Next != 10 {
		t.Fatalf("checker state: %+v", c)
	}
}

func TestCheckerDetectsDuplicate(t *testing.T) {
	c := NewChecker()
	c.Deliver(TagPayload(0, 16))
	c.Deliver(TagPayload(0, 16))
	if c.Duplicates != 1 {
		t.Fatalf("duplicates = %d", c.Duplicates)
	}
}

func TestCheckerDetectsSkip(t *testing.T) {
	c := NewChecker()
	c.Deliver(TagPayload(0, 16))
	c.Deliver(TagPayload(2, 16)) // tag 1 missing
	if c.OutOfOrder != 1 {
		t.Fatalf("out of order = %d", c.OutOfOrder)
	}
	// Resumes at the new high-water mark.
	c.Deliver(TagPayload(3, 16))
	if c.OutOfOrder != 1 {
		t.Fatalf("checker did not resync: %+v", c)
	}
}

func TestCheckerDetectsReorder(t *testing.T) {
	c := NewChecker()
	c.Deliver(TagPayload(1, 16))
	c.Deliver(TagPayload(0, 16))
	if c.OutOfOrder < 1 {
		t.Fatal("reorder not flagged")
	}
}
