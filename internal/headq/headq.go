// Package headq implements the sliding-head backlog shared by the link
// layer's send queue and the sim engine's monotone event lanes: consumers
// advance a head index instead of re-slicing, and producers call Compact
// before each append so the backing array is reused when drained and the
// dead prefix is reclaimed under sustained pipelined load.
package headq

// minHead is the compaction threshold: below it the dead prefix is too
// small to be worth a copy, whatever fraction of the slice it is.
const minHead = 64

// Compact returns (buf, head) with the consumed prefix buf[:head]
// reclaimed when profitable: a fully drained buffer restarts at its
// backing array's front, and a dead prefix that is both larger than
// minHead and the majority of the slice is slid out. Vacated slots are
// zeroed so element references are released to the GC. Memory stays
// O(pending) rather than O(total ever queued) under workloads where the
// queue never fully drains.
func Compact[T any](buf []T, head int) ([]T, int) {
	if head == len(buf) {
		return buf[:0], 0
	}
	if head > minHead && head > len(buf)/2 {
		n := copy(buf, buf[head:])
		var zero T
		for i := n; i < len(buf); i++ {
			buf[i] = zero
		}
		return buf[:n], 0
	}
	return buf, head
}
