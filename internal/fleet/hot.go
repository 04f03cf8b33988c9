package fleet

import (
	"sync"
	"time"
)

// hotTracker counts per-key request arrivals with periodic exponential
// decay, so "hot" means *recently* hot: a key that stops repeating
// halves toward zero every hotEpoch and loses its promotion instead of
// pinning replicas forever. The map is bounded — when it overflows,
// entries below the running median are dropped (a key that cannot stay
// above the crowd is not hot).
type hotTracker struct {
	mu     sync.Mutex
	last   time.Time
	counts map[string]uint64
}

const (
	hotEpoch = 10 * time.Second // decay half-life of the counts
	hotLimit = 8192             // tracked keys before the colder half is evicted
)

func newHotTracker() *hotTracker {
	return &hotTracker{counts: make(map[string]uint64)}
}

// bump records one arrival for key and returns its decayed count, the
// number promotion thresholds compare against.
func (h *hotTracker) bump(key string, now time.Time) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.last.IsZero() {
		h.last = now
	}
	// Lazy decay: halve every elapsed epoch. The map is bounded, so the
	// sweep is O(hotLimit) at worst and runs at most once per epoch.
	for now.Sub(h.last) >= hotEpoch {
		h.last = h.last.Add(hotEpoch)
		for k, c := range h.counts {
			if c >>= 1; c == 0 {
				delete(h.counts, k)
			} else {
				h.counts[k] = c
			}
		}
	}
	h.counts[key]++
	n := h.counts[key]
	if len(h.counts) > hotLimit {
		h.evictColdLocked()
	}
	return n
}

// evictColdLocked halves the map by dropping the colder half: keys with
// counts at or below an approximate median leave first.
func (h *hotTracker) evictColdLocked() {
	// Approximate median by sampling is overkill at this size; a single
	// pass computing the mean is a good-enough pivot for "colder half".
	var sum uint64
	for _, c := range h.counts {
		sum += c
	}
	pivot := sum / uint64(len(h.counts))
	if pivot == 0 {
		pivot = 1
	}
	for k, c := range h.counts {
		if c <= pivot && len(h.counts) > hotLimit/2 {
			delete(h.counts, k)
		}
	}
}

// size reports the tracked key count (statsz).
func (h *hotTracker) size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.counts)
}
