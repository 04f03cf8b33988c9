package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/reliability"
	"repro/internal/runner"
)

// kind is one row of the job-kind table: everything the serving layer
// knows about a kind beyond its JobSpec and keySpec payload field. A new
// kind is one entry here plus that field.
type kind struct {
	// name is the JobSpec.Kind value; payload the JSON name of the kind's
	// JobSpec payload field, which present reports as set.
	name, payload string
	present       func(JobSpec) bool
	// normalize validates the payload (present by the time it runs) and
	// returns the spec with it replaced by its canonical defaults-filled
	// copy. Specs travel by value: a pointer handed to a table entry
	// would move every submission's spec to the heap.
	normalize func(JobSpec) (JobSpec, error)
	// run executes a normalized spec and returns the value whose JSON is
	// the result document.
	run func(context.Context, runner.Pool, JobSpec) (any, error)
}

var kinds = []kind{
	{
		name: KindGrid, payload: "grid",
		present: func(s JobSpec) bool { return s.Grid != nil },
		normalize: func(s JobSpec) (JobSpec, error) {
			if s.Grid.N <= 0 {
				return s, fmt.Errorf("service: grid needs N > 0 payloads per cell")
			}
			if err := s.Grid.Base.Validate(); err != nil {
				return s, err
			}
			g := s.Grid.Normalized()
			// Grid cells run on chains, which ignore NoExpress: normalize
			// it away so it cannot split the cache key.
			g.Base.NoExpress = false
			for _, cfg := range g.Configs() {
				if err := cfg.Validate(); err != nil {
					return s, err
				}
			}
			s.Grid = &g
			return s, nil
		},
		run: func(ctx context.Context, pool runner.Pool, s JobSpec) (any, error) {
			return core.RunGrid(ctx, pool, *s.Grid)
		},
	},
	{
		name: KindSweep, payload: "sweep",
		present: func(s JobSpec) bool { return s.Sweep != nil },
		normalize: func(s JobSpec) (JobSpec, error) {
			sw := *s.Sweep
			if err := checkBERs("sweep", sw.BERs); err != nil {
				return s, err
			}
			if sw.FlitsPerPoint <= 0 {
				return s, fmt.Errorf("service: sweep needs flits_per_point > 0")
			}
			sw.Shards = shardsOrDefault(sw.Shards)
			s.Sweep = &sw
			return s, nil
		},
		run: func(ctx context.Context, pool runner.Pool, s JobSpec) (any, error) {
			return reliability.MCBERSweep(ctx, pool, s.Sweep.BERs, s.Sweep.FlitsPerPoint, s.Sweep.Shards)
		},
	},
	{
		name: KindRare, payload: "rare",
		present: func(s JobSpec) bool { return s.Rare != nil },
		normalize: func(s JobSpec) (JobSpec, error) {
			r := *s.Rare
			if err := checkBERs("rare", r.BERs); err != nil {
				return s, err
			}
			if r.MaxTrials <= 0 {
				r.MaxTrials = 1 << 22
			}
			if r.RelErr < 0 {
				r.RelErr = 0
			}
			// Every non-positive proposal is the automatic tilt; a set one
			// must pass the estimators' own check for every listed BER,
			// so a bad proposal is a 400 here rather than a failed job.
			if r.Proposal < 0 {
				r.Proposal = 0
			}
			for _, ber := range r.BERs {
				if err := reliability.CheckTilt("rare", ber, r.Proposal); err != nil {
					return s, err
				}
			}
			r.Shards = shardsOrDefault(r.Shards)
			s.Rare = &r
			return s, nil
		},
		run: func(ctx context.Context, pool runner.Pool, s JobSpec) (any, error) {
			r := s.Rare
			return reliability.RareSweep(ctx, pool, r.BERs, r.Proposal, r.RelErr, r.MaxTrials, r.Shards)
		},
	},
	{
		name: KindComparison, payload: "comparison",
		present: func(s JobSpec) bool { return s.Comparison != nil },
		normalize: func(s JobSpec) (JobSpec, error) {
			c := *s.Comparison
			if c.N <= 0 {
				return s, fmt.Errorf("service: comparison needs n > 0 payloads")
			}
			// Protocol and LinkConfig are overridden per variant by the
			// comparison engine, and its chains ignore NoExpress; normalize
			// them away so two specs that differ only in ignored fields
			// share one cache entry.
			c.Base.Protocol = 0
			c.Base.LinkConfig = nil
			c.Base.NoExpress = false
			if err := c.Base.Validate(); err != nil {
				return s, err
			}
			s.Comparison = &c
			return s, nil
		},
		run: func(ctx context.Context, pool runner.Pool, s JobSpec) (any, error) {
			results, err := core.RunComparisonPool(ctx, pool, s.Comparison.Base, s.Comparison.N)
			if err != nil {
				return nil, err
			}
			ordered := make([]ProtocolResult, len(results))
			for i, r := range results {
				ordered[i] = ProtocolResult{Protocol: core.Protocols[i].String(), Result: r}
			}
			return ordered, nil
		},
	},
	{
		name: KindRareSelfCheck, payload: "rare_selfcheck",
		present: func(s JobSpec) bool { return s.RareSelfCheck != nil },
		normalize: func(s JobSpec) (JobSpec, error) {
			r := *s.RareSelfCheck
			if err := checkBERs("rare_selfcheck", r.BERs); err != nil {
				return s, err
			}
			if r.Flits <= 0 {
				r.Flits = 1 << 21
			}
			r.Shards = shardsOrDefault(r.Shards)
			s.RareSelfCheck = &r
			return s, nil
		},
		run: func(ctx context.Context, pool runner.Pool, s JobSpec) (any, error) {
			r := s.RareSelfCheck
			return reliability.RareSelfCheck(ctx, pool, r.BERs, r.Flits, r.Shards)
		},
	},
	{
		name: KindScenario, payload: "scenario",
		present: func(s JobSpec) bool { return s.Scenario != nil },
		normalize: func(s JobSpec) (JobSpec, error) {
			if err := s.Scenario.Base.Validate(); err != nil {
				return s, err
			}
			// Mesh and torus fabrics have no switching levels and no
			// switch-internal fault point: Levels is normalized away like
			// any ignored field, and an InternalFlipProb the run would
			// silently skip is refused.
			if s.Scenario.Base.InternalFlipProb != 0 {
				return s, fmt.Errorf("service: scenario fabrics do not model InternalFlipProb; use a fault campaign")
			}
			sg, err := s.Scenario.Normalized()
			if err != nil {
				return s, err
			}
			sg.Base.Levels = 0
			// Reject grids with no runnable cells at submission, like an
			// invalid axis — and validate every cell configuration.
			cells, err := sg.Cells()
			if err != nil {
				return s, err
			}
			for _, c := range cells {
				if err := c.Cfg.Validate(); err != nil {
					return s, err
				}
			}
			s.Scenario = &sg
			return s, nil
		},
		run: func(ctx context.Context, pool runner.Pool, s JobSpec) (any, error) {
			return core.RunScenarioGrid(ctx, pool, *s.Scenario)
		},
	},
}

// kindOf looks a kind up by name; nil when the table has no such kind.
func kindOf(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// kindList renders one column of the table for an error message.
func kindList(col func(*kind) string, sep string) string {
	names := make([]string, len(kinds))
	for i := range kinds {
		names[i] = col(&kinds[i])
	}
	return strings.Join(names, sep)
}

// checkBERs is the BER-list validation the Monte-Carlo kinds share.
func checkBERs(what string, bers []float64) error {
	if len(bers) == 0 {
		return fmt.Errorf("service: %s needs at least one BER", what)
	}
	for _, ber := range bers {
		if !(ber > 0 && ber < 1) {
			return fmt.Errorf("service: %s BER %g out of (0,1)", what, ber)
		}
	}
	return nil
}

// shardsOrDefault fills an unset shard count with the runner-wide default.
func shardsOrDefault(shards int) int {
	if shards <= 0 {
		return reliability.DefaultShards
	}
	return shards
}

// ProtocolResult is one variant of a comparison job's result document,
// in the fixed core.Protocols presentation order — a slice, not the
// library's map, so the marshalled bytes are canonical.
type ProtocolResult struct {
	Protocol string      `json:"protocol"`
	Result   core.Result `json:"result"`
}

// execute runs a normalized spec on a runner pool sized to the
// scheduler's grant and returns the result document. The bytes are what
// the cache stores and what every identical future submission is served:
// compact JSON from a deterministic engine, so cached, uncached, and
// direct library runs of the same spec are byte-identical.
func execute(ctx context.Context, spec JobSpec, pool runner.Pool) (json.RawMessage, error) {
	k := kindOf(spec.Kind)
	if k == nil {
		// Normalize rejects unknown kinds before jobs reach the queue.
		return nil, fmt.Errorf("service: unknown job kind %q", spec.Kind)
	}
	v, err := k.run(ctx, pool, spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}
