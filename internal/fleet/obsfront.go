package fleet

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// wireMetrics builds the front's /metrics registry and hands the routing
// code its counters. Same design as the daemon's: a registry counter is
// the one store of each count (FrontStats reads its Value), histograms
// are observed on the request path, and state that is not a count is
// sampled at scrape time.
//
// The submit-latency histogram carries the daemon's outcome labels with
// one difference: a forwarded miss is observed here at submit-accept time
// (the terminal latency lands on the owner's histogram), so the front's
// "miss" series measures routing cost, not compute cost.
func (f *Front) wireMetrics() {
	reg := obs.NewRegistry()
	f.metrics = reg

	f.subSeconds = service.OutcomeHistograms(reg, "rxlfront_submit_seconds",
		"Submit forwarding latency in seconds, by response outcome.")

	reg.GaugeFunc("rxlfront_uptime_seconds", "Seconds since front start.",
		func() float64 { return time.Since(f.start).Seconds() })
	reg.GaugeFunc("rxlfront_ring_size", "Virtual nodes on the routing ring.",
		func() float64 { return float64(f.ring.Size()) })
	reg.GaugeFunc("rxlfront_hot_tracked", "Keys currently tracked by the hot-key counter.",
		func() float64 { return float64(f.hot.size()) })

	f.forwards = reg.Counter("rxlfront_forwards_total", "Submissions forwarded to an owner.")
	f.failovers = reg.Counter("rxlfront_failovers_total", "Forwards that skipped at least one dead owner.")
	f.promotions = reg.Counter("rxlfront_hot_promotions_total", "Submissions routed via a hot key's replica set.")

	// Per-peer health and traffic, labelled by the peer's base URL — the
	// series rxltop renders as the fleet map.
	bit := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for _, p := range f.peers {
		p := p
		reg.GaugeFunc("rxlfront_peer_up", "1 when the peer is routable (probe verdict AND passive marks).",
			func() float64 { return bit(p.up(time.Now())) }, "peer", p.url)
		reg.GaugeFunc("rxlfront_peer_probe_ok", "1 when the peer's last active health probe succeeded.",
			func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return bit(p.probeOK)
			}, "peer", p.url)
		p.routed = reg.Counter("rxlfront_peer_routed_total", "Successful forwards to the peer.", "peer", p.url)
		p.errors = reg.Counter("rxlfront_peer_errors_total", "Transport failures forwarding to the peer.", "peer", p.url)
		p.probes = reg.Counter("rxlfront_peer_probes_total", "Active health probes sent to the peer.", "peer", p.url)
		p.probeFails = reg.Counter("rxlfront_peer_probe_failures_total", "Active health probes the peer failed.", "peer", p.url)
	}

	reg.GaugeFunc("rxlfront_traces_live", "Request IDs with spans in the front's trace buffer.",
		func() float64 { return float64(f.tracer.Size()) })
}

// handleJobTrace assembles the cross-process trace of a fleet job: the
// owner's spans (which carry the request ID), the front's own spans, and
// whatever every other member recorded under that ID — the peer that
// served a cache fetch, a fallback owner that was probed. One traced
// hot-key miss therefore shows the full front → owner → peer path under
// a single propagated request ID.
func (f *Front) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	p, localID, ok := f.resolveJobID(r.PathValue("id"))
	if !ok {
		service.WriteError(w, http.StatusNotFound, "no such job (fleet IDs look like p0~j000001-...)")
		return
	}
	tv, err := p.client.JobTrace(r.Context(), localID)
	if err != nil {
		if code, ok := service.StatusCode(err); ok {
			service.WriteError(w, code, err.Error())
			return
		}
		service.WriteError(w, http.StatusBadGateway, "fleet: peer unreachable: "+err.Error())
		return
	}
	spans := f.assembleTrace(r, tv.RequestID, p)
	spans = append(tv.Spans, spans...)
	obs.SortSpans(spans)
	service.WriteJSON(w, http.StatusOK, service.TraceView{
		RequestID: tv.RequestID,
		JobID:     r.PathValue("id"),
		Spans:     spans,
	})
}

// handleTrace is the request-ID-addressed variant: merge the front's and
// every member's spans for the ID, 404 when nobody recorded anything.
func (f *Front) handleTrace(w http.ResponseWriter, r *http.Request) {
	rid := r.PathValue("rid")
	spans := f.assembleTrace(r, rid, nil)
	if len(spans) == 0 {
		service.WriteError(w, http.StatusNotFound, "no trace for request id")
		return
	}
	obs.SortSpans(spans)
	service.WriteJSON(w, http.StatusOK, service.TraceView{RequestID: rid, Spans: spans})
}

// assembleTrace gathers the front's own spans for rid plus every
// member's (excluding skip, whose spans the caller already has). Peers
// without spans answer 404; unreachable peers are skipped — a trace is
// best-effort by nature.
func (f *Front) assembleTrace(r *http.Request, rid string, skip *frontPeer) []obs.Span {
	spans := f.tracer.Spans(rid)
	if rid == "" {
		return spans
	}
	for _, q := range f.peers {
		if q == skip {
			continue
		}
		qtv, err := q.client.TraceByRequestID(r.Context(), rid)
		if err == nil {
			spans = append(spans, qtv.Spans...)
		}
	}
	return spans
}
