package service

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// FleetStats is the fleet section of /v1/statsz: the configured
// membership plus this daemon's peer-traffic counters.
type FleetStats struct {
	FleetInfo
	// PeerHits counts local misses answered by fetching the bytes from
	// a peer (the owner, or a fallback owner) instead of computing.
	PeerHits uint64 `json:"peer_hits"`
	// PeerMisses counts miss-path fleet consultations that fell through
	// to a local engine run: no peer had a copy, or this daemon owns the
	// key and asked no peer at all.
	PeerMisses uint64 `json:"peer_misses"`
	// PeerServed counts GET /v1/cache/{key} requests this daemon
	// answered with bytes — its service to the rest of the fleet.
	PeerServed uint64 `json:"peer_served"`
	// PeerProbes counts all GET /v1/cache/{key} lookups received.
	PeerProbes uint64 `json:"peer_probes"`
}

// fetchFromPeer asks the fleet for a job's result bytes when the daemon
// is a fleet member, and returns them on a peer hit. On a miss it returns
// the job context's error: a fetch that consumed the job's deadline, or
// outlived the client's cancel, must not start an engine run that would
// only be torn down. Nil bytes and a nil error mean "compute it here".
func (s *Server) fetchFromPeer(ctx context.Context, j *Job) ([]byte, error) {
	if s.cfg.PeerFetch == nil {
		return nil, nil
	}
	start := time.Now()
	res, ok := s.cfg.PeerFetch(ctx, j.Key)
	// Fetched bytes are cached and served verbatim, so they must be in
	// encoder form; anything else (a proxy's HTML error page, a truncated
	// body) is a peer miss, and the job computes its own.
	hit := ok && encoderForm(res)
	s.tracer.Record(j.rid, "peer_fetch", start, time.Since(start),
		map[string]string{"hit": strconv.FormatBool(hit)})
	if !hit {
		s.peerMisses.Inc()
		return nil, ctx.Err()
	}
	s.peerHits.Inc()
	j.setPeerFetched()
	return res, nil
}

// handleCacheFetch is the fleet peer-fetch protocol: serve the raw
// result bytes for a cache key, or 404 — never compute. With ?wait=ms,
// a key that is currently being computed here is joined: the request
// blocks until the in-flight job finishes (or the budget elapses) and
// then serves the freshly cached bytes. That join is what makes a hot
// key compute once fleet-wide — a replica asking the owner during the
// owner's first computation gets the owner's bytes, not a second run.
func (s *Server) handleCacheFetch(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		WriteError(w, http.StatusBadRequest, "cache key must be a hex sha-256")
		return
	}
	serve := func(b []byte) {
		s.peerServed.Inc()
		// Recorded under the *fetching* daemon's request ID (propagated in
		// the request header), so the owner's serve shows up in the trace
		// of the miss that triggered the fetch.
		obs.Record(r.Context(), "peer_serve", time.Now(), map[string]string{
			"key": key[:8],
		})
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", `"`+key+`"`)
		w.Write(b)
	}
	if b, ok := s.cache.Probe(key); ok {
		serve(b)
		return
	}
	wait, ok := parseWait(r)
	if !ok {
		WriteError(w, http.StatusBadRequest, "bad wait parameter")
		return
	}
	if wait > 0 {
		s.mu.Lock()
		j := s.inflight[key]
		s.mu.Unlock()
		if j != nil {
			waitTerminal(r.Context(), j, wait)
			if b, ok := s.cache.Probe(key); ok {
				serve(b)
				return
			}
		}
	}
	WriteError(w, http.StatusNotFound, "not cached")
}
