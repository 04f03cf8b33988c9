package main

import "strings"

// The metric and workload declarations. BENCHMARK.json at the repo root
// is this table rendered by -manifest; bench_test.go keeps them equal.

// metric declares one reported number.
type metric struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	// exact marks a count or simulated figure that is bit-equal between
	// runs of the same code and seed; the others are host-time
	// measurements or depend on scheduling.
	exact bool
	// on lists the workloads the metric is measured on; elsewhere it
	// reads 0. Empty marks a layer probe: it does not depend on the
	// workload, and every traced run measures it.
	on string
}

const (
	allMesh  = "mesh_clean mesh_storm mesh_bytelevel"
	allServe = "serve_mix fleet_mix"
	all      = allMesh + " mc_rare " + allServe
)

// workloadDecl names a workload and why it exists.
type workloadDecl struct{ name, why string }

var workloadDecls = []workloadDecl{
	{"mesh_clean", "RXL 8x8 mesh, uniform(16) flows, BER 1e-6: 96% express traversals, so sim/switchfab/link handlers and allocation do the work and crc/rs almost none"},
	{"mesh_storm", "RXL 8x8 torus, BER 1e-5 under a fault storm: express fallbacks, retransmissions, router FEC corrections, drops and timer events - the error/retry path"},
	{"mesh_bytelevel", "mesh_clean with NoFastPath: every router decodes, checks and re-encodes, the only place crc/rs/flit kernels carry an end-to-end share"},
	{"mc_rare", "RareSweep at BER 1e-8/1e-10/1e-12 on the sharded runner: phy tilt + rarevent + rs decodes, no simulator; the only workload with parallel speed-up"},
	{"serve_mix", "rxld daemon over loopback HTTP, closed loop, 2 clients: 90% zipf hits on a primed 64-config hot set, 10% unique-seed grid misses"},
	{"fleet_mix", "the serve_mix request sequence through a fleet front over 3 members: the difference to serve_mix is the fleet layer's cost"},
}

// endToEnd is measured with tracing off and reported by every workload:
// the driver gates each of these on each workload.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: all},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, on: all},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: all},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25, on: all},
}

// perLayer is reported by the traced run (-trace 1). The first block are
// the workload-specific user-visible figures, taken from the traced
// run's untraced phase; the rest are probes, counts and spans by layer.
var perLayer = []metric{
	{name: "flits_per_s", unit: "1/s", better: "higher", on: allMesh},
	{name: "sim_goodput_gbps", unit: "Gb/s", better: "higher", exact: true, on: allMesh},
	{name: "trials_per_s", unit: "1/s", better: "higher", on: "mc_rare"},
	{name: "est_rel_err", unit: "ratio", better: "lower", exact: true, on: "mc_rare"},
	{name: "req_per_s", unit: "1/s", better: "higher", on: allServe},
	{name: "hit_p50_us", unit: "us", better: "lower", on: allServe},
	{name: "miss_p50_ms", unit: "ms", better: "lower", on: allServe},
	{name: "miss_p95_ms", unit: "ms", better: "lower", on: allServe},
	{name: "fail_ratio", unit: "ratio", better: "lower", exact: true, on: all},

	{name: "crc.isn_seal_ns", unit: "ns", better: "lower"},
	{name: "rs.encode_ns", unit: "ns", better: "lower"},
	{name: "rs.verify_clean_ns", unit: "ns", better: "lower"},
	{name: "rs.decode_1err_ns", unit: "ns", better: "lower"},
	{name: "flit.seal_rxl_ns", unit: "ns", better: "lower"},
	{name: "flit.decode_check_ns", unit: "ns", better: "lower"},
	{name: "flit.materialize_ns", unit: "ns", better: "lower"},
	{name: "phy.grant_ns", unit: "ns", better: "lower"},
	{name: "sim.event_monotone_ns", unit: "ns", better: "lower"},
	{name: "sim.event_mixed_ns", unit: "ns", better: "lower"},
	{name: "sim.events_per_flit", unit: "count", better: "lower", exact: true, on: allMesh},
	{name: "sim.drain_ns_per_event", unit: "ns", better: "lower", on: allMesh},
	{name: "link.submit_ns_per_flit", unit: "ns", better: "lower", on: allMesh},
	{name: "link.direct_flit_ns", unit: "ns", better: "lower"},
	{name: "link.retx_per_kflit", unit: "count", better: "lower", exact: true, on: allMesh},
	{name: "link.wire_flits_per_delivered", unit: "ratio", better: "lower", exact: true, on: allMesh},
	{name: "link.timeout_retries", unit: "count", better: "lower", exact: true, on: allMesh},
	{name: "switchfab.express_flit_ns", unit: "ns", better: "lower"},
	{name: "switchfab.perhop_flit_ns", unit: "ns", better: "lower"},
	{name: "switchfab.bytelevel_flit_ns", unit: "ns", better: "lower"},
	{name: "switchfab.express_share", unit: "ratio", better: "higher", exact: true, on: allMesh},
	{name: "switchfab.corrected_per_kflit", unit: "count", better: "lower", exact: true, on: allMesh},
	{name: "switchfab.dropped_per_kflit", unit: "count", better: "lower", exact: true, on: allMesh},
	{name: "core.build_ms", unit: "ms", better: "lower", on: allMesh},
	{name: "core.collect_ms", unit: "ms", better: "lower", on: allMesh},
	{name: "core.alloc_bytes_per_flit", unit: "B", better: "lower", on: allMesh},
	{name: "core.allocs_per_flit", unit: "count", better: "lower", on: allMesh},
	{name: "core.gc_pause_ms", unit: "ms", better: "lower", on: allMesh},
	{name: "workload.generate_us", unit: "us", better: "lower", on: allMesh},
	{name: "reliability.mc_sched_mflits_s", unit: "Mflit/s", better: "higher"},
	{name: "reliability.mc_path_mflits_s", unit: "Mflit/s", better: "higher"},
	{name: "reliability.rare_fer_s", unit: "s", better: "lower", on: "mc_rare"},
	{name: "reliability.rare_uc_s", unit: "s", better: "lower", on: "mc_rare"},
	{name: "reliability.rare_ud_s", unit: "s", better: "lower", on: "mc_rare"},
	{name: "reliability.trials_spent", unit: "count", better: "lower", exact: true, on: "mc_rare"},
	{name: "runner.shard_overhead_us", unit: "us", better: "lower"},
	{name: "runner.speedup_w", unit: "ratio", better: "higher", on: "mc_rare"},
	{name: "service.normalize_key_us", unit: "us", better: "lower"},
	{name: "service.cache_get_ns", unit: "ns", better: "lower"},
	{name: "service.cache_put_us", unit: "us", better: "lower"},
	{name: "service.inproc_hit_us", unit: "us", better: "lower"},
	{name: "service.http_hit_us", unit: "us", better: "lower"},
	{name: "service.http_share", unit: "ratio", better: "lower"},
	{name: "service.queue_wait_p50_us", unit: "us", better: "lower", on: allServe},
	{name: "service.run_p50_ms", unit: "ms", better: "lower", on: allServe},
	{name: "service.cache_write_p50_us", unit: "us", better: "lower", on: allServe},
	{name: "service.miss_residual_p50_us", unit: "us", better: "lower", on: allServe},
	{name: "service.hit_ratio", unit: "ratio", better: "higher", on: allServe},
	{name: "service.dedup_hits", unit: "count", better: "lower", on: allServe},
	{name: "service.rejected_429", unit: "count", better: "lower", on: allServe},
	{name: "service.hit_p99_us", unit: "us", better: "lower", on: allServe},
	{name: "service.miss_p99_ms", unit: "ms", better: "lower", on: allServe},
	{name: "fleet.ring_owner_ns", unit: "ns", better: "lower"},
	{name: "fleet.front_overhead_p50_us", unit: "us", better: "lower"},
	{name: "fleet.peer_hits", unit: "count", better: "higher", on: "fleet_mix"},
	{name: "fleet.peer_misses", unit: "count", better: "lower", on: "fleet_mix"},
	{name: "fleet.owner_balance", unit: "ratio", better: "lower", on: "fleet_mix"},
	{name: "obs.hist_observe_ns", unit: "ns", better: "lower"},
	{name: "obs.metrics_render_us", unit: "us", better: "lower"},
	{name: "obs.trace_fetch_us", unit: "us", better: "lower"},
	{name: "bench.kernel_share", unit: "ratio", better: "lower", on: allMesh},
	{name: "bench.engine_share", unit: "ratio", better: "lower", on: allMesh},
	{name: "bench.residual_share", unit: "ratio", better: "lower", on: all},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", on: all},
	{name: "bench.rep_spread_pct", unit: "%", better: "lower", on: all},
}

// probe reports whether m is a workload-independent layer probe.
func (m metric) probe() bool { return m.on == "" }

// measuredOn reports whether m is measured on workload w.
func (m metric) measuredOn(w string) bool {
	if m.probe() {
		return true
	}
	for _, f := range strings.Fields(m.on) {
		if f == w {
			return true
		}
	}
	return false
}
