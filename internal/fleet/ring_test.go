package fleet

import (
	"fmt"
	"testing"
)

// testKeys returns n distinct synthetic cache keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	return keys
}

func mustRing(t testing.TB, peers []string, vnodes int) *Ring {
	t.Helper()
	r, err := NewRing(peers, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRingPlacementPure pins that ownership is a pure function of
// (key, peer set): rebuilding the ring — including from a shuffled,
// duplicated peer list — maps every key to the same owner.
func TestRingPlacementPure(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	shuffled := []string{"http://c:1", "http://a:1", "http://d:1", "http://b:1", "http://a:1"}

	r1 := mustRing(t, peers, 0)
	r2 := mustRing(t, shuffled, 0)
	r3 := mustRing(t, peers, 0)

	for _, k := range testKeys(5000) {
		o := r1.Owner(k)
		if got := r2.Owner(k); got != o {
			t.Fatalf("key %q: shuffled ring owner %q != %q", k, got, o)
		}
		if got := r3.Owner(k); got != o {
			t.Fatalf("key %q: rebuilt ring owner %q != %q", k, got, o)
		}
	}
	if r1.Size() != 4*DefaultVNodes {
		t.Fatalf("ring size %d, want %d", r1.Size(), 4*DefaultVNodes)
	}
	if len(r2.Peers()) != 4 {
		t.Fatalf("shuffled+duplicated peer list kept %d peers, want 4", len(r2.Peers()))
	}
}

// TestRingBalance asserts no peer's share of the key space strays far
// from fair: with 128 vnodes each of 5 peers must hold between half and
// double its fair share of 20k keys. Deterministic (fixed hash, fixed
// keys), so the bounds cannot flake.
func TestRingBalance(t *testing.T) {
	peers := []string{"http://p0:8080", "http://p1:8080", "http://p2:8080", "http://p3:8080", "http://p4:8080"}
	r := mustRing(t, peers, 0)
	keys := testKeys(20000)

	load := make(map[string]int)
	for _, k := range keys {
		load[r.Owner(k)]++
	}
	fair := float64(len(keys)) / float64(len(peers))
	for p, n := range load {
		if ratio := float64(n) / fair; ratio < 0.5 || ratio > 2.0 {
			t.Errorf("peer %s holds %d keys (%.2fx fair share %g)", p, n, ratio, fair)
		}
	}
	if len(load) != len(peers) {
		t.Errorf("only %d of %d peers own any keys", len(load), len(peers))
	}
}

// TestRingMinimalMovement pins the consistent-hashing contract: adding
// one peer to an N-peer ring reassigns roughly 1/(N+1) of the keys —
// and every key that moves, moves *to the new peer*. Removing the peer
// restores the original placement exactly.
func TestRingMinimalMovement(t *testing.T) {
	base := []string{"http://p0:1", "http://p1:1", "http://p2:1", "http://p3:1", "http://p4:1"}
	grown := append(append([]string{}, base...), "http://p5:1")
	keys := testKeys(20000)

	before := mustRing(t, base, 0)
	after := mustRing(t, grown, 0)

	moved := 0
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob == oa {
			continue
		}
		moved++
		if oa != "http://p5:1" {
			t.Fatalf("key %q moved %q -> %q, not to the new peer", k, ob, oa)
		}
	}
	expect := float64(len(keys)) / float64(len(grown)) // 1/(N+1) of the space
	if f := float64(moved); f < 0.5*expect || f > 2.0*expect {
		t.Errorf("adding a peer moved %d keys, want within [%.0f, %.0f] (~1/(N+1) = %.0f)",
			moved, 0.5*expect, 2.0*expect, expect)
	}

	// Removal is the exact inverse: shrinking back must restore the
	// original owner for every key.
	shrunk := mustRing(t, grown[:len(base)], 0)
	for _, k := range keys {
		if shrunk.Owner(k) != before.Owner(k) {
			t.Fatalf("key %q: owner changed after add+remove round trip", k)
		}
	}
}

// TestRingOwners pins the replica-set contract: Owners returns distinct
// peers, the first is the owner, the order is stable across rebuilds,
// and requesting more owners than peers returns all peers.
func TestRingOwners(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := mustRing(t, peers, 0)

	for _, k := range testKeys(1000) {
		owners := r.Owners(k, 2)
		if len(owners) != 2 {
			t.Fatalf("key %q: got %d owners, want 2", k, len(owners))
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("key %q: Owners[0] %q != Owner %q", k, owners[0], r.Owner(k))
		}
		if owners[0] == owners[1] {
			t.Fatalf("key %q: duplicate peer in replica set", k)
		}
		all := r.Owners(k, 10)
		if len(all) != len(peers) {
			t.Fatalf("key %q: Owners(10) returned %d peers, want %d", k, len(all), len(peers))
		}
	}

	if got := r.Owners("k", 0); got != nil {
		t.Fatalf("Owners(k, 0) = %v, want nil", got)
	}
}

// TestNewRingRejectsBadInput covers the error paths.
func TestNewRingRejectsBadInput(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := NewRing([]string{"http://a:1", ""}, 0); err == nil {
		t.Error("empty peer name accepted")
	}
}

func BenchmarkRingOwner(b *testing.B) {
	r := mustRing(b, []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}, 0)
	keys := testKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(keys[i&1023])
	}
}
