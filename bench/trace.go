package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval, recorded by the benchmark around its own
// calls into a layer. Parent 0 means a root; spans of one operation share
// its root.
type span struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"`
	Workload string            `json:"workload"`
	Name     string            `json:"name"`
	StartNS  int64             `json:"start_ns"`
	EndNS    int64             `json:"end_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// start opens a span and returns its id.
func (r *recorder) start(parent int, name string) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Workload: r.workload, Name: name, StartNS: now})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// add records a span measured elsewhere (a server-side span fetched from
// the daemon's tracer).
func (r *recorder) add(parent int, name string, start time.Time, d time.Duration, attrs map[string]string) {
	at := start.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Workload: r.workload, Name: name,
		StartNS: at, EndNS: at + d.Nanoseconds(), Attrs: attrs})
}

// write dumps the spans as one JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
