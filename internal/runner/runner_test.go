package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/phy"
)

// TestShardSeedDeterministic: the derivation is a pure function and
// distinct indices give distinct, decorrelated seeds.
func TestShardSeedDeterministic(t *testing.T) {
	if ShardSeed(42, 7) != ShardSeed(42, 7) {
		t.Fatal("ShardSeed is not deterministic")
	}
	seen := make(map[uint64]int)
	for base := uint64(0); base < 4; base++ {
		for i := 0; i < 1000; i++ {
			s := ShardSeed(base, i)
			if j, dup := seen[s]; dup {
				t.Fatalf("seed collision: base=%d index=%d equals earlier %d", base, i, j)
			}
			seen[s] = i
		}
	}
}

// mcShard is a miniature Monte-Carlo shard: it consumes the shard's RNG
// stream and returns a value that depends on every draw, so any seed or
// scheduling difference shows up in the result.
func mcShard(_ context.Context, s Shard) (uint64, error) {
	rng := phy.NewRNG(s.Seed)
	var acc uint64
	for i := 0; i < 1000; i++ {
		acc = acc*31 + rng.Uint64()
	}
	return acc, nil
}

// TestMapDeterministicAcrossWorkers: the headline invariant — identical
// results at workers=1, workers=4, and workers=NumCPU.
func TestMapDeterministicAcrossWorkers(t *testing.T) {
	const n = 64
	ctx := context.Background()
	ref, err := Map(ctx, Pool{Workers: 1, BaseSeed: 99}, n, mcShard)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, runtime.NumCPU(), 0} {
		got, err := Map(ctx, Pool{Workers: w, BaseSeed: 99}, n, mcShard)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d shard %d: got %#x want %#x", w, i, got[i], ref[i])
			}
		}
	}
}

// TestMapShardOrder: results land at their shard index regardless of the
// completion order.
func TestMapShardOrder(t *testing.T) {
	got, err := Map(context.Background(), Pool{Workers: 8}, 100, func(_ context.Context, s Shard) (int, error) {
		if s.Of != 100 {
			return 0, fmt.Errorf("shard count %d, want 100", s.Of)
		}
		return s.Index * 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("index %d holds %d", i, v)
		}
	}
}

// TestMapError: a failing shard cancels the run, the error names the
// shard, and no partial results leak.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	got, err := Map(context.Background(), Pool{Workers: 4}, 1000, func(ctx context.Context, s Shard) (int, error) {
		ran.Add(1)
		if s.Index == 5 {
			return 0, boom
		}
		// Shards after the failing one wait for the cancel, so the other
		// workers cannot drain every shard while shard 5 is descheduled.
		if s.Index > 5 {
			<-ctx.Done()
		}
		return s.Index, nil
	})
	if got != nil {
		t.Fatal("Map returned partial results alongside an error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the shard failure", err)
	}
	if want := "shard 5/1000"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the failing shard (%s)", err, want)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("all %d shards ran despite early failure", n)
	}
}

// TestMapCancellation: a canceled context stops dispatch promptly and
// surfaces context.Canceled.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	got, err := Map(ctx, Pool{Workers: 2}, 1000, func(ctx context.Context, s Shard) (int, error) {
		if ran.Add(1) == 10 {
			cancel()
		}
		return s.Index, nil
	})
	if got != nil {
		t.Fatal("Map returned results after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("all %d shards ran despite cancellation", n)
	}
}

// TestMapPreCanceled: an already-canceled context runs nothing.
func TestMapPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	if _, err := Map(ctx, Pool{}, 50, func(context.Context, Shard) (int, error) {
		ran.Add(1)
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d shards ran on a pre-canceled context", n)
	}
}

// TestMapProgress: the callback sees every completion and ends at
// done == total.
func TestMapProgress(t *testing.T) {
	var calls atomic.Int64
	var last atomic.Int64
	_, err := Map(context.Background(), Pool{
		Workers: 4,
		Progress: func(done, total int) {
			calls.Add(1)
			if total != 30 {
				t.Errorf("total %d, want 30", total)
			}
			last.Store(int64(done))
		},
	}, 30, func(_ context.Context, s Shard) (int, error) { return s.Index, nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 30 || last.Load() != 30 {
		t.Fatalf("progress calls=%d last done=%d, want 30/30", calls.Load(), last.Load())
	}
}

// TestMapEmpty: zero shards is a valid no-op; negative is an error.
func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), Pool{}, 0, mcShard)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
	if _, err := Map(context.Background(), Pool{}, -1, mcShard); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestSplit: quotas sum to the total and differ by at most one.
func TestSplit(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{
		{100, 7}, {7, 100}, {0, 3}, {64, 64}, {1, 1},
	} {
		q := Split(tc.total, tc.shards)
		if len(q) != tc.shards {
			t.Fatalf("Split(%d,%d): %d quotas", tc.total, tc.shards, len(q))
		}
		sum, min, max := 0, q[0], q[0]
		for _, v := range q {
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if sum != tc.total || max-min > 1 {
			t.Fatalf("Split(%d,%d) = %v: sum=%d spread=%d", tc.total, tc.shards, q, sum, max-min)
		}
	}
}

// TestReduce: fold runs in shard order.
func TestReduce(t *testing.T) {
	got := Reduce([]int{1, 2, 3}, "", func(a string, v int) string {
		return fmt.Sprintf("%s%d", a, v)
	})
	if got != "123" {
		t.Fatalf("Reduce order: %q", got)
	}
}
