package fleet

import (
	"context"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// FetchConfig parameterizes a daemon's peer fetcher.
type FetchConfig struct {
	// Self is this daemon's own base URL as it appears in Peers; the
	// fetcher never asks itself.
	Self string
	// Peers is the full fleet membership (base URLs), self included.
	Peers []string
	// Wait is the in-flight join budget of the primary owner's probe:
	// how long it may block while the owner is computing the key right
	// now (0 = 10s). An owner that neither holds nor is computing the
	// key answers immediately regardless, and fallback probes never
	// wait (see Fetch).
	Wait time.Duration
}

// fetchCandidates is how many distinct non-self owners a fetch tries
// before giving up: the owner plus one fallback for when the owner is
// down.
const fetchCandidates = 2

// Fetcher resolves cache misses from fleet peers: on a miss for a key
// this daemon does not own, ask the ring owner (then a fallback owner)
// for the bytes before computing locally. It is the value wired into
// service.Config.PeerFetch by cmd/rxld.
type Fetcher struct {
	ring    *Ring
	self    string
	wait    time.Duration
	clients map[string]*service.Client
}

// NewFetcher validates the configuration and builds the ring.
func NewFetcher(cfg FetchConfig) (*Fetcher, error) {
	ring, err := NewRing(cfg.Peers, 0)
	if err != nil {
		return nil, err
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 10 * time.Second
	}
	f := &Fetcher{
		ring:    ring,
		self:    cfg.Self,
		wait:    cfg.Wait,
		clients: make(map[string]*service.Client, len(ring.peers)),
	}
	for _, p := range ring.Peers() {
		if p != cfg.Self {
			f.clients[p] = service.NewClient(p)
		}
	}
	return f, nil
}

// Fetch implements service.Config.PeerFetch. The decision table:
//
//   - Self owns the key: return immediately — the owner is the
//     authoritative computer of its keys; peers fill *from* it, so
//     probing them would mostly pay a round trip to hear "no".
//   - Otherwise: probe the owner, joining its in-flight computation if
//     one is running, then (owner down or empty) the next distinct
//     owner on the ring. Any bytes found are the answer — every daemon
//     computes identical bytes for a spec, so a fallback owner's copy
//     is the owner's copy.
//   - Only the primary owner's probe joins an in-flight job. A fallback
//     owner is another non-owner: its in-flight job for the key may be
//     sitting in this very loop, probing us, and two such daemons
//     joining each other would both wait out the whole budget before
//     either computes. Fallback probes take finished bytes or nothing.
//
// Errors are deliberately swallowed into ok=false: a dead peer must
// degrade to a local compute, never fail the job.
func (f *Fetcher) Fetch(ctx context.Context, key string) ([]byte, bool) {
	owners := f.ring.Owners(key, fetchCandidates+1)
	if len(owners) > 0 && owners[0] == f.self {
		return nil, false
	}
	tried := 0
	for _, o := range owners {
		if o == f.self || tried >= fetchCandidates {
			continue
		}
		tried++
		wait := f.wait
		if o != owners[0] {
			wait = 0
		}
		start := time.Now()
		b, ok, err := f.clients[o].FetchCached(ctx, key, wait)
		// The job's context carries the submitting request's trace (and
		// FetchCached forwards its ID), so each probe — and the serve it
		// triggers on the peer — lands in the request's fleet-wide trace.
		obs.Record(ctx, "peer_probe", start, map[string]string{
			"peer": o, "hit": strconv.FormatBool(err == nil && ok),
		})
		if err == nil && ok {
			return b, true
		}
		if ctx.Err() != nil {
			return nil, false
		}
	}
	return nil, false
}

// Ring exposes the fetcher's ring (for statsz wiring and tests).
func (f *Fetcher) Ring() *Ring { return f.ring }

// Candidates returns the fetch candidate budget (statsz "replicas").
func (f *Fetcher) Candidates() int { return fetchCandidates }
