// Package workload generates spatial traffic patterns — which (src,dst)
// node pairs of a W×H fabric exchange payloads — for scenario-diversity
// experiments: a workload picks the routes, and the scenario layer
// (internal/core) injects payloads along them.
//
// Every generator is a pure function of (spec, geometry, seed), so the
// same scenario cell reproduces the same flow set on the fast and
// byte-level simulation paths — the precondition for the differential
// contract. Specs are JSON-serializable with omitempty tags so they can
// ride inside rxld job specs and cache keys.
//
// The patterns are the standard adversarial suite of interconnect
// evaluation: uniform random, zipf hot-spot (a few nodes receive most
// traffic, like parameter servers in training jobs), transpose and
// bit-reverse permutations (worst cases for dimension-ordered routing),
// single-sink incast, and trace-driven replay of recorded flow lists.
package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/phy"
)

// Workload kinds.
const (
	KindUniform    = "uniform"
	KindZipf       = "zipf"
	KindTranspose  = "transpose"
	KindBitReverse = "bitrev"
	KindSingleSink = "singlesink"
	KindReplay     = "replay"
)

// ErrIncompatible marks a (workload, geometry) pairing that cannot
// produce flows — transpose on a non-square fabric, bit-reverse on a
// non-power-of-two one, a replay trace naming nodes outside the grid.
// Matrix sweeps skip such cells instead of failing.
var ErrIncompatible = errors.New("workload: incompatible with fabric geometry")

// Flow is one (src,dst) route of a generated workload, in fabric
// coordinates.
type Flow struct {
	SrcX, SrcY int
	DstX, DstY int
	// Count is the payload volume a replay trace records for the route,
	// its duplicate records merged; 0 for generated workloads.
	Count int
}

// Spec selects and parameterizes a workload generator. The zero value is
// invalid; Normalized fills kind-appropriate defaults.
type Spec struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Skew is the zipf exponent (zipf only; default 1.2). Larger is
	// hotter.
	Skew float64 `json:"skew,omitempty"`
	// Flows is the number of distinct routes drawn (uniform/zipf only;
	// default 8). Distinct because routes sharing a (src,dst) pair would
	// share one link-layer peer.
	Flows int `json:"flows,omitempty"`
	// SinkX, SinkY locate the incast sink (singlesink only; default
	// (0,0)).
	SinkX int `json:"sinkX,omitempty"`
	SinkY int `json:"sinkY,omitempty"`
	// Trace is the inline replay trace ("src dst [count]" lines, node IDs
	// row-major y*W+x) for KindReplay.
	Trace string `json:"trace,omitempty"`
}

// Name identifies the workload in reports and differential-case names.
func (s Spec) Name() string {
	switch s.Kind {
	case KindZipf:
		return fmt.Sprintf("zipf(s=%g,n=%d)", s.Skew, s.Flows)
	case KindUniform:
		return fmt.Sprintf("uniform(n=%d)", s.Flows)
	case KindSingleSink:
		return fmt.Sprintf("singlesink(%d,%d)", s.SinkX, s.SinkY)
	default:
		return s.Kind
	}
}

// Normalized validates the spec and fills defaults, returning the
// canonical form used for cache keying.
func (s Spec) Normalized() (Spec, error) {
	switch s.Kind {
	case KindUniform, KindZipf:
		if s.Flows == 0 {
			s.Flows = 8
		}
		if s.Flows < 0 {
			return s, fmt.Errorf("workload: %s: negative flow count %d", s.Kind, s.Flows)
		}
		if s.Kind == KindZipf {
			if s.Skew == 0 {
				s.Skew = 1.2
			}
			if s.Skew < 0 {
				return s, fmt.Errorf("workload: zipf skew %g is negative", s.Skew)
			}
		} else if s.Skew != 0 {
			return s, fmt.Errorf("workload: skew is a zipf parameter")
		}
	case KindTranspose, KindBitReverse:
		if s.Skew != 0 || s.Flows != 0 {
			return s, fmt.Errorf("workload: %s takes no skew/flows parameters", s.Kind)
		}
	case KindSingleSink:
		if s.SinkX < 0 || s.SinkY < 0 {
			return s, fmt.Errorf("workload: negative sink (%d,%d)", s.SinkX, s.SinkY)
		}
	case KindReplay:
		if s.Trace == "" {
			return s, fmt.Errorf("workload: replay spec has no trace")
		}
	case "":
		return s, fmt.Errorf("workload: empty kind")
	default:
		return s, fmt.Errorf("workload: unknown kind %q", s.Kind)
	}
	return s, nil
}

// Generate produces the flow set of spec on a W×H fabric. The result is
// deterministic in (spec, w, h, seed), contains no self-flows and no
// duplicate (src,dst) pairs, and is never empty (an empty outcome is an
// error). Geometry mismatches return ErrIncompatible (wrapped).
func Generate(spec Spec, w, h int, seed uint64) ([]Flow, error) {
	spec, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("workload: bad fabric %dx%d", w, h)
	}
	n := w * h
	if n < 2 {
		return nil, fmt.Errorf("%w: %s needs at least two nodes", ErrIncompatible, spec.Kind)
	}

	switch spec.Kind {
	case KindUniform:
		return drawFlows(spec.Flows, w, h, seed, nil)
	case KindZipf:
		return drawFlows(spec.Flows, w, h, seed, zipfTable(n, spec.Skew))
	case KindTranspose:
		if w != h {
			return nil, fmt.Errorf("%w: transpose needs a square fabric, got %dx%d", ErrIncompatible, w, h)
		}
		var flows []Flow
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x == y {
					continue // diagonal nodes map to themselves
				}
				flows = append(flows, Flow{SrcX: x, SrcY: y, DstX: y, DstY: x})
			}
		}
		return nonEmpty(flows, spec.Kind)
	case KindBitReverse:
		bits := 0
		for 1<<bits < n {
			bits++
		}
		if 1<<bits != n {
			return nil, fmt.Errorf("%w: bit-reverse needs a power-of-two node count, got %d", ErrIncompatible, n)
		}
		var flows []Flow
		for id := 0; id < n; id++ {
			rev := 0
			for b := 0; b < bits; b++ {
				if id&(1<<b) != 0 {
					rev |= 1 << (bits - 1 - b)
				}
			}
			if rev == id {
				continue
			}
			flows = append(flows, Flow{SrcX: id % w, SrcY: id / w, DstX: rev % w, DstY: rev / w})
		}
		return nonEmpty(flows, spec.Kind)
	case KindSingleSink:
		if spec.SinkX >= w || spec.SinkY >= h {
			return nil, fmt.Errorf("%w: sink (%d,%d) outside %dx%d fabric", ErrIncompatible, spec.SinkX, spec.SinkY, w, h)
		}
		var flows []Flow
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x == spec.SinkX && y == spec.SinkY {
					continue
				}
				flows = append(flows, Flow{SrcX: x, SrcY: y, DstX: spec.SinkX, DstY: spec.SinkY})
			}
		}
		return nonEmpty(flows, spec.Kind)
	case KindReplay:
		recs, err := parseReplay(spec.Trace)
		if err != nil {
			return nil, err
		}
		seen := make(map[[2]int]int) // route -> index into flows
		var flows []Flow
		for _, r := range recs {
			if r.Src >= n || r.Dst >= n {
				return nil, fmt.Errorf("%w: replay node %d outside %dx%d fabric", ErrIncompatible, max(r.Src, r.Dst), w, h)
			}
			if r.Src == r.Dst {
				continue
			}
			// A duplicate record merges into the route's first occurrence.
			if i, ok := seen[[2]int{r.Src, r.Dst}]; ok {
				flows[i].Count += r.N
				continue
			}
			seen[[2]int{r.Src, r.Dst}] = len(flows)
			flows = append(flows, Flow{SrcX: r.Src % w, SrcY: r.Src / w, DstX: r.Dst % w, DstY: r.Dst / w, Count: r.N})
		}
		return nonEmpty(flows, spec.Kind)
	}
	panic("unreachable: Normalized admits only known kinds")
}

// drawFlows samples distinct non-self (src,dst) pairs: sources uniform,
// destinations uniform or weighted by the cumulative table. Sampling is
// rejection-based over a deterministic RNG, bounded so pathological
// geometries (everything already drawn) terminate with an error instead
// of spinning.
func drawFlows(count, w, h int, seed uint64, cumWeight []float64) ([]Flow, error) {
	n := w * h
	if count > n*(n-1) {
		return nil, fmt.Errorf("%w: %d distinct flows exceed %d ordered pairs", ErrIncompatible, count, n*(n-1))
	}
	rng := phy.NewRNG(seed)
	seen := make(map[[2]int]bool, count)
	flows := make([]Flow, 0, count)
	for attempts := 0; len(flows) < count; attempts++ {
		if attempts > 1000*count {
			return nil, fmt.Errorf("workload: sampling stalled after %d attempts", attempts)
		}
		src := rng.Intn(n)
		var dst int
		if cumWeight == nil {
			dst = rng.Intn(n)
		} else {
			x := rng.Float64() * cumWeight[n-1]
			// Linear scan: node counts are ≤256, and determinism matters
			// more than speed here.
			for dst < n-1 && x >= cumWeight[dst] {
				dst++
			}
		}
		if src == dst || seen[[2]int{src, dst}] {
			continue
		}
		seen[[2]int{src, dst}] = true
		flows = append(flows, Flow{SrcX: src % w, SrcY: src / w, DstX: dst % w, DstY: dst / w})
	}
	return flows, nil
}

// zipfTable builds the cumulative weight table of a zipf(s) popularity
// distribution over node IDs: node 0 is the hottest destination with
// weight 1, node i has weight (i+1)^-s.
func zipfTable(n int, s float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	return cum
}

func nonEmpty(flows []Flow, kind string) ([]Flow, error) {
	if len(flows) == 0 {
		return nil, fmt.Errorf("%w: %s produced no flows", ErrIncompatible, kind)
	}
	return flows, nil
}
