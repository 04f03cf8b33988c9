// Package fleet turns N independent rxld daemons into one logical
// service. The repository's cache key is already location-independent —
// the SHA-256 of a normalized job spec names the result bytes, not the
// machine that computed them — so distribution reduces to three pieces
// of wiring, all in this package:
//
//   - Ring (ring.go): an immutable consistent-hash ring mapping every
//     cache key to an owner daemon (and an ordered list of fallback
//     owners). Placement is a pure function of (key, peer set): every
//     front, every daemon, and every client-side router that builds a
//     ring over the same peer list computes the same owner with no
//     coordination, and adding or removing a peer moves only ~1/N of
//     the key space.
//
//   - Fetcher (fetch.go): daemon-side peer fetch. A daemon that misses
//     its local cache asks the key's owner for the bytes (joining the
//     owner's in-flight computation if one is running) before falling
//     back to computing locally. Replicas therefore fill from the owner
//     instead of re-running engines.
//
//   - Front (front.go): a stateless router speaking the same HTTP
//     surface as a daemon. It normalizes each submission, computes its
//     key, and forwards it to the ring owner — promoting keys that
//     repeat above a threshold to a replica set of K owners so hot
//     zipf-skewed traffic spreads across daemons.
//
// None of this wiring can change a result: every daemon computes
// byte-identical documents for a given spec (the runner's determinism
// contract), so routing, failover, and replication only decide which
// machine serves bytes that are fixed by the spec alone. See DESIGN.md
// §10 for the full argument.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per peer. 128 points per peer
// keeps the max/mean load imbalance under ~30% for small fleets while
// the ring stays a few KB.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring over a set of peer names
// (base URLs, in this repository). Construct with NewRing; methods are
// safe for concurrent use.
type Ring struct {
	peers  []string // sorted, unique
	vnodes int
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the 64-bit hash circle
// claimed by a peer.
type ringPoint struct {
	hash uint64
	peer int32 // index into peers
}

// NewRing builds a ring with vnodes virtual nodes per peer (<= 0 selects
// DefaultVNodes). The peer list is deduplicated and sorted first, so
// placement depends only on the *set* of peers, never the order they
// were listed in a flag or config file.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("fleet: empty peer name")
		}
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one peer")
	}
	sort.Strings(uniq)

	r := &Ring{
		peers:  uniq,
		vnodes: vnodes,
		points: make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for i, p := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(p, v), peer: int32(i)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between distinct peers' points are vanishingly
		// rare but must still order deterministically.
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// pointHash positions virtual node v of a peer on the circle: the first
// 8 bytes of SHA-256(peer || 0x00 || v). SHA-256 keeps point placement
// uniform regardless of how peer names are structured (URLs share long
// prefixes, which weaker multiplicative hashes cluster).
func pointHash(peer string, v int) uint64 {
	h := sha256.New()
	h.Write([]byte(peer))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(v)))
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0]))
}

// keyHash positions a cache key on the circle. Keys are already hex
// SHA-256 content addresses, but re-hashing costs nothing at serving
// rates and keeps the ring correct for any key shape.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the peer that owns key: the peer whose first virtual
// node clockwise of the key's hash position claims it.
func (r *Ring) Owner(key string) string {
	return r.peers[r.points[r.successor(keyHash(key))].peer]
}

// Owners returns up to n distinct peers in ownership order: the owner
// first, then each subsequent distinct peer walking clockwise. This is
// both the replica set of a hot key (first K entries) and the failover
// order when the owner is unreachable — every ring over the same peer
// set agrees on it.
func (r *Ring) Owners(key string, n int) []string {
	if n > len(r.peers) {
		n = len(r.peers)
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	i := r.successor(keyHash(key))
	for len(out) < n {
		p := r.points[i].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, r.peers[p])
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}

// successor returns the index of the first point at or clockwise of h.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Peers returns the sorted peer set.
func (r *Ring) Peers() []string {
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// Size returns the number of virtual nodes on the ring (peers × vnodes)
// — the ring_size reported by /v1/statsz.
func (r *Ring) Size() int { return len(r.points) }

// VNodes returns the virtual-node count per peer.
func (r *Ring) VNodes() int { return r.vnodes }
