// Package runner is the parallel sharded experiment runner: it takes a job
// set — a protocol × levels × BER × seed grid, or N Monte-Carlo trials —
// shards it across a configurable worker pool, and merges the per-shard
// results deterministically.
//
// Every simulation substrate in this repository is single-threaded by
// design (one sim.Engine, one phy.RNG lineage per fabric), so the
// unit of parallelism is the *shard*: an independent job with its own
// engine and its own RNG stream. The two invariants the runner maintains:
//
//  1. Deterministic seed derivation. A shard's RNG seed is a pure function
//     of the pool's base seed and the shard index (ShardSeed), never of
//     scheduling. The shard count is a property of the job set, not of the
//     worker count.
//
//  2. Order-independent merging. Map returns results indexed by shard, in
//     shard order, regardless of the order workers finish them. Reducers
//     that fold the slice (or that merge commutatively, like Monte-Carlo
//     counter sums) therefore produce bit-identical aggregates at any
//     worker count.
//
// Together these make `workers=1`, `workers=4`, and `workers=NumCPU` give
// byte-for-byte the same output — parallelism is purely a wall-clock
// optimization, never a reproducibility hazard.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Shard identifies one unit of a sharded job set.
type Shard struct {
	// Index is the 0-based shard index within the job set.
	Index int
	// Of is the total number of shards in the job set.
	Of int
	// Seed is the shard's deterministic RNG seed, derived from the pool's
	// base seed and Index by ShardSeed.
	Seed uint64
}

// ShardSeed derives the RNG seed of shard `index` from a base seed. The
// derivation is a pure function (splitmix64-style finalizing mix), so any
// worker count — and any execution order — sees the same seed for the same
// shard. Distinct indices give decorrelated seeds even for adjacent bases.
func ShardSeed(base uint64, index int) uint64 {
	x := base + 0x9E3779B97F4A7C15*(uint64(index)+1)
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Pool configures the sharded worker pool. The zero value is usable: it
// runs with GOMAXPROCS workers and base seed 0.
type Pool struct {
	// Workers is the number of concurrent workers. Zero or negative means
	// runtime.GOMAXPROCS(0). Workers only bounds concurrency; it never
	// changes results.
	Workers int
	// BaseSeed is the master seed every shard seed derives from.
	BaseSeed uint64
	// Progress, when non-nil, is called after each shard completes with
	// the number of completed shards and the total. Calls are serialized
	// but may come from worker goroutines in any shard order.
	Progress func(done, total int)
}

// workers resolves the effective worker count for n shards.
func (p Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn over n shards on the pool and returns the results in shard
// order. Each invocation receives a Shard carrying its deterministic seed.
// The first error cancels the remaining shards and is returned (wrapped
// with its shard index); a canceled context likewise stops dispatch and
// returns ctx.Err(). On error the partial results are discarded — Map
// either returns the complete, deterministic result set or nothing.
func Map[T any](ctx context.Context, p Pool, n int, fn func(context.Context, Shard) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative shard count %d", n)
	}
	if n == 0 {
		return []T{}, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	jobs := make(chan int)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	progress := func() {
		mu.Lock()
		done++
		if p.Progress != nil {
			p.Progress(done, n)
		}
		mu.Unlock()
	}

	for w := 0; w < p.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				res, err := fn(ctx, Shard{Index: i, Of: n, Seed: ShardSeed(p.BaseSeed, i)})
				if err != nil {
					fail(fmt.Errorf("runner: shard %d/%d: %w", i, n, err))
					return
				}
				results[i] = res
				progress()
			}
		}()
	}

dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Split partitions `total` trials across `shards` as evenly as possible
// (the first total%shards shards get one extra). The split depends only on
// the two arguments, keeping Monte-Carlo shard workloads — and therefore
// merged counts — independent of the worker count.
func Split(total, shards int) []int {
	if shards <= 0 {
		panic("runner: Split needs at least one shard")
	}
	if total < 0 {
		panic("runner: Split with negative total")
	}
	out := make([]int, shards)
	base, extra := total/shards, total%shards
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}

// Reduce folds results in shard order. Because Map returns results in
// shard order already, any fold — commutative or not — is deterministic
// across worker counts.
func Reduce[T, A any](results []T, init A, merge func(A, T) A) A {
	acc := init
	for _, r := range results {
		acc = merge(acc, r)
	}
	return acc
}
