package service

import (
	"encoding/json"
	"sync"
)

// Event is one entry of a job's progress stream, bridged to SSE.
type Event struct {
	// Type is "status", "progress", "result", or "error".
	Type string `json:"type"`
	// Status accompanies "status" events (and the terminal event).
	Status Status `json:"status,omitempty"`
	// Done/Total mirror the runner's progress callback for the current
	// sharded stage; multi-stage jobs (rare sweeps, adaptive rounds)
	// restart Done per stage while ShardsDone keeps counting.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// ShardsDone is the cumulative completed-shard count across stages.
	ShardsDone int64 `json:"shards_done,omitempty"`
	// Error carries the failure message on "error" events.
	Error string `json:"error,omitempty"`
	// Result carries the job's result document on "result" events.
	Result json.RawMessage `json:"result,omitempty"`
}

// broker is a per-job append-only event log with replay: subscribers read
// the log by index and park on a wake channel that each publish closes.
// There are no per-subscriber buffers, so no subscriber can fall behind
// or force a drop — a late attacher replays the full history and then
// follows live, which is exactly the SSE contract the server exposes.
// The zero value is an empty log. The wake channel is made only when a
// subscriber parks on it, so a job nobody watches — every cache hit —
// publishes without allocating one.
type broker struct {
	mu   sync.Mutex
	log  []Event
	wake chan struct{} // nil until a subscriber of a live log asks for it
	done bool
}

// publish appends an event and wakes every parked subscriber. terminal
// marks the log complete; further publishes are dropped (a cancelled
// job's late progress must not reopen a closed stream).
func (b *broker) publish(e Event, terminal bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	if b.log == nil {
		// Every log ends up holding at least its queued and terminal events.
		b.log = make([]Event, 0, 2)
	}
	b.log = append(b.log, e)
	b.done = terminal
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
}

// snapshot returns the events at and past `from`, a channel that closes
// on the next publish, and whether the log is terminal. Callers loop:
// consume the slice, then wait on the channel unless done (a terminal
// log returns no channel: there is no next publish to wait for).
func (b *broker) snapshot(from int) ([]Event, <-chan struct{}, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var tail []Event
	if from < len(b.log) {
		tail = b.log[from:]
	}
	if !b.done && b.wake == nil {
		b.wake = make(chan struct{})
	}
	return tail, b.wake, b.done
}
