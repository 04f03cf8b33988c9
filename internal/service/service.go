// Package service is the experiment-serving layer: a long-running daemon
// that multiplexes sweep, grid, and rare-event jobs from many concurrent
// clients onto one machine's simulation engines.
//
// Three mechanisms turn the one-shot CLIs into a system:
//
//   - Content-addressed result cache (cache.go). A job's configuration is
//     normalized (defaults filled, empty axes expanded) and marshalled to
//     canonical JSON; the SHA-256 of those bytes is the job's identity.
//     Every engine in this repository is deterministic per (config, seed)
//     — the runner's bit-identical-at-any-worker-count invariant — so two
//     requests with the same key have byte-identical answers and the
//     second one never touches a core. Hits are served from an in-memory
//     LRU, with evictions optionally spilled to a directory that survives
//     restarts. Identical jobs submitted while the first is still running
//     coalesce onto the in-flight job instead of queueing a duplicate.
//
//   - Admission-controlled scheduler (sched.go). Misses enter a bounded
//     priority queue (FIFO within a priority class); submissions beyond
//     the bound are rejected immediately with 429 rather than absorbed
//     into an unbounded backlog. A dispatcher grants each job a worker
//     allocation from a fixed shard budget (default GOMAXPROCS) and sizes
//     the job's internal runner pool to the grant, so total shard
//     concurrency across all running jobs never exceeds the budget — the
//     machine is shared, never oversubscribed. Jobs carry per-job
//     cancellation (DELETE) and an optional execution deadline.
//
//   - Progress streaming (events.go, server.go). The runner's progress
//     callbacks are bridged into a per-job replayable event log exposed
//     as a Server-Sent-Events stream, so clients attaching at any point
//     see the full history and then live updates until the terminal
//     event.
//
// The HTTP surface (stdlib net/http only):
//
//	POST   /v1/jobs             submit a JobSpec; cache hits return the
//	                            result inline with "cached": true
//	GET    /v1/jobs/{id}        status + result (?wait=ms long-polls)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events SSE progress/status/result stream
//	GET    /v1/healthz          liveness
//	GET    /v1/statsz           queue depth, shard budget use, cache hit
//	                            rate, jobs served
//
// The same Server value is an http.Handler, so tests and in-process
// clients (rxl.Serve / rxl.InProcessClient) drive the daemon through
// exactly the path HTTP users take, without a socket.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// Job kinds accepted by POST /v1/jobs.
const (
	// KindGrid runs a live-simulation grid (core.RunGrid): protocol ×
	// levels × BER × seed cells, each a full end-to-end fabric.
	KindGrid = "grid"
	// KindSweep runs a Monte-Carlo flit-error-rate BER sweep on the
	// error-event schedule (reliability.MCBERSweep).
	KindSweep = "sweep"
	// KindRare runs the deep-tail rare-event estimation (FER, FER_UC,
	// FER_UD per BER) with importance sampling (reliability.RareSweep).
	KindRare = "rare"
	// KindComparison runs the same workload across all three protocol
	// variants (core.RunComparisonPool) — the CXL-vs-RXL tables.
	KindComparison = "comparison"
	// KindRareSelfCheck cross-validates the importance-sampling machinery
	// against naive schedule Monte-Carlo (reliability.RareSelfCheck).
	KindRareSelfCheck = "rare-selfcheck"
	// KindScenario runs a scenario grid (core.RunScenarioGrid): protocol ×
	// topology × workload × fault-campaign × BER × seed cells on mesh or
	// torus fabrics.
	KindScenario = "scenario"
)

// SweepSpec parameterizes a KindSweep job.
type SweepSpec struct {
	// BERs are the swept bit error rates, one measurement per entry.
	BERs []float64 `json:"bers"`
	// FlitsPerPoint is the Monte-Carlo flit budget per BER.
	FlitsPerPoint int `json:"flits_per_point"`
	// Shards splits each point's budget (0 = reliability.DefaultShards).
	Shards int `json:"shards,omitempty"`
}

// RareSpec parameterizes a KindRare job.
type RareSpec struct {
	// BERs are the deep-tail operating points to estimate.
	BERs []float64 `json:"bers"`
	// Proposal is the importance-sampling proposal BER (0 = auto).
	Proposal float64 `json:"proposal_ber,omitempty"`
	// RelErr is the target relative error of each estimate; <= 0 spends
	// exactly MaxTrials.
	RelErr float64 `json:"rel_err,omitempty"`
	// MaxTrials caps the adaptive trial budget per quantity (0 = 2^22).
	MaxTrials int `json:"max_trials,omitempty"`
	// Shards splits each round (0 = reliability.DefaultShards).
	Shards int `json:"shards,omitempty"`
}

// ComparisonSpec parameterizes a KindComparison job.
type ComparisonSpec struct {
	// Base is the fabric configuration shared by the three variants. Its
	// Protocol and LinkConfig fields are ignored — the comparison engine
	// overrides both per variant — and are normalized away so they cannot
	// split the cache key.
	Base core.Config `json:"base"`
	// N is the number of line-rate payloads offered per variant.
	N int `json:"n"`
}

// RareSelfCheckSpec parameterizes a KindRareSelfCheck job.
type RareSelfCheckSpec struct {
	// BERs are the operating points where IS and naive Monte-Carlo both
	// converge (1e-6..1e-7 territory).
	BERs []float64 `json:"bers"`
	// Flits is the naive-side trial budget per BER (0 = 2^21).
	Flits int `json:"flits,omitempty"`
	// Shards splits each measurement (0 = reliability.DefaultShards).
	Shards int `json:"shards,omitempty"`
}

// JobSpec is the wire form of a job submission. Exactly one payload
// field must be set, matching Kind. Scheduling fields (Priority,
// TimeoutMS, Workers) steer the queue but are excluded from the cache
// key: they can change when a job runs and with how many workers, but —
// by the runner's determinism invariant — never what it computes.
type JobSpec struct {
	// Kind selects the engine: one of the Kind… constants.
	Kind string `json:"kind"`
	// Seed is the runner pool's base seed; every shard seed derives from
	// it, so (spec, seed) fully determines the result bytes.
	Seed uint64 `json:"seed"`
	// Priority orders the queue: higher runs first, FIFO within a class.
	Priority int `json:"priority,omitempty"`
	// TimeoutMS bounds the job's execution wall-clock once it starts
	// running (0 = no deadline).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers caps this job's shard concurrency. The scheduler may grant
	// fewer (never more than the server's shard budget); 0 accepts the
	// server default. Does not affect results.
	Workers int `json:"workers,omitempty"`

	// Grid is the KindGrid payload: a core.Grid in its native JSON form
	// (Go field names; protocols are integers — 0 CXL, 1 CXL-noPB, 2 RXL).
	Grid *core.Grid `json:"grid,omitempty"`
	// Sweep is the KindSweep payload.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Rare is the KindRare payload.
	Rare *RareSpec `json:"rare,omitempty"`
	// Comparison is the KindComparison payload.
	Comparison *ComparisonSpec `json:"comparison,omitempty"`
	// RareSelfCheck is the KindRareSelfCheck payload.
	RareSelfCheck *RareSelfCheckSpec `json:"rare_selfcheck,omitempty"`
	// Scenario is the KindScenario payload: a core.ScenarioGrid in its
	// native JSON form.
	Scenario *core.ScenarioGrid `json:"scenario,omitempty"`
}

// Normalize validates the spec and fills every defaulted field with its
// effective value, returning the canonical spec the cache key is computed
// from. Two submissions that mean the same job — different JSON field
// order, axes left to default expansion, shard counts left to the default
// — normalize to identical values.
func (s JobSpec) Normalize() (JobSpec, error) {
	set := 0
	for i := range kinds {
		if kinds[i].present(s) {
			set++
		}
	}
	if set != 1 {
		return s, fmt.Errorf("service: spec needs exactly one of %s, got %d",
			kindList(func(k *kind) string { return k.payload }, "/"), set)
	}
	k := kindOf(s.Kind)
	if k == nil {
		return s, fmt.Errorf("service: unknown job kind %q (want one of %s)",
			s.Kind, kindList(func(k *kind) string { return k.name }, ", "))
	}
	if !k.present(s) {
		return s, fmt.Errorf("service: kind %q needs a %s payload", s.Kind, k.payload)
	}
	s, err := k.normalize(s)
	if err != nil {
		return s, err
	}
	if s.Workers < 0 {
		s.Workers = 0
	}
	return s, nil
}

// keySpec is the cache-key projection of a normalized spec: the fields
// that determine result bytes and nothing else.
type keySpec struct {
	Kind          string
	Seed          uint64
	Grid          *core.Grid
	Sweep         *SweepSpec
	Rare          *RareSpec
	Comparison    *ComparisonSpec    `json:",omitempty"`
	RareSelfCheck *RareSelfCheckSpec `json:",omitempty"`
	Scenario      *core.ScenarioGrid `json:",omitempty"`
}

// Key returns the content address of a normalized spec: the hex SHA-256
// of its canonical JSON. Call Normalize first; keys of unnormalized specs
// would distinguish jobs that compute identical bytes.
func (s JobSpec) Key() string {
	// Struct marshalling emits fields in declaration order with no
	// whitespace variance, so the encoding is canonical by construction.
	// The new kinds' fields carry omitempty so specs of the original
	// kinds keep their PR 4 canonical bytes — and therefore their cache
	// keys, including entries already spilled to disk.
	b, err := json.Marshal(keySpec{
		Kind: s.Kind, Seed: s.Seed, Grid: s.Grid, Sweep: s.Sweep, Rare: s.Rare,
		Comparison: s.Comparison, RareSelfCheck: s.RareSelfCheck, Scenario: s.Scenario,
	})
	if err != nil {
		// Specs are plain data — the only marshal failures are
		// non-finite floats, which Normalize rejects as invalid BERs.
		panic(fmt.Sprintf("service: canonical marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
