package fleet

import (
	"fmt"
	"testing"
	"time"
)

// TestHotTrackerEvictsColdPastLimit: arrivals of more distinct keys than
// hotLimit never grow the map past it, and the eviction that keeps it
// there drops the cold crowd, not a key whose count is far above the mean.
func TestHotTrackerEvictsColdPastLimit(t *testing.T) {
	h := newHotTracker()
	now := time.Unix(0, 0)
	const hot = "hot-key"
	for i := 0; i < 100; i++ {
		h.bump(hot, now)
	}
	for i := 0; i < 3*hotLimit; i++ {
		h.bump(fmt.Sprintf("cold-%d", i), now)
		if n := h.size(); n > hotLimit {
			t.Fatalf("after %d cold keys the tracker holds %d keys, limit %d", i+1, n, hotLimit)
		}
	}
	if got := h.bump(hot, now); got != 101 {
		t.Errorf("hot key count %d after the overflow, want 101", got)
	}
}
