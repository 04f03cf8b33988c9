// Package rxl is a simulation and analysis library reproducing "Scaling
// Out Chip Interconnect Networks with Implicit Sequence Numbers" (SC 2025).
//
// The paper proposes ISN — embedding the link sequence number in the CRC
// instead of the flit header — and RXL, a CXL 3.0 extension that elevates
// the 64-bit CRC to an end-to-end transport check while FEC stays per-hop.
// This package exposes the reproduction's three toolkits:
//
//   - Simulation: build a Fabric (endpoints, switches, BER channels), push
//     traffic through it, and account failures exactly as Section 7.1
//     defines them (Fail_data, Fail_order). The deterministic Fig. 4 and
//     Fig. 5 failure scenarios are packaged as one-call functions.
//
//   - Analysis: the closed-form reliability model (Eq. 1–10, Fig. 8) and
//     bandwidth model (Eq. 11–14), with Monte-Carlo estimators validating
//     each conditional stage.
//
//   - Hardware: the gate-level cost model behind Section 7.3's "10 XOR
//     gates" claim, derived symbolically from the repository's own CRC.
//
// # Quick start
//
//	fabric := rxl.MustNewFabric(rxl.Config{
//		Protocol: rxl.RXL,
//		Levels:   2,    // two switching levels
//		BER:      1e-6, // CXL 3.0 bit error rate
//		Seed:     1,
//	})
//	exp := rxl.Experiment{Fabric: fabric, N: 10000}
//	res := exp.Run()
//	fmt.Println(res)
//
// The three protocol variants are Protocol values: CXL (baseline, ACK
// piggybacking on the multiplexed FSN field), CXLNoPiggyback (explicit
// sequence numbers, standalone ACK flits), and RXL (implicit sequence
// numbers in the CRC).
package rxl

import (
	"context"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hwcost"
	"repro/internal/link"
	"repro/internal/perf"
	"repro/internal/reliability"
	"repro/internal/reliability/rarevent"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/switchfab"
	"repro/internal/workload"
)

// Protocol selects the sequence-integrity scheme of a fabric.
type Protocol = link.Protocol

// Protocol variants compared throughout the paper.
const (
	// CXL is baseline CXL 3.0: the 10-bit FSN header field is multiplexed
	// between sequence numbers and piggybacked acknowledgments.
	CXL = link.ProtocolCXL
	// CXLNoPiggyback always sends explicit sequence numbers and pays for
	// standalone ACK flits (Section 7.2.2, option 2).
	CXLNoPiggyback = link.ProtocolCXLNoPiggyback
	// RXL embeds the sequence number in the end-to-end CRC (ISN).
	RXL = link.ProtocolRXL
)

// Config describes an end-to-end fabric: protocol, switching depth, error
// injection, and timing.
type Config = core.Config

// LinkConfig parameterizes the link-layer peers (replay window, ACK
// coalescing, timeouts).
type LinkConfig = link.Config

// LinkStats is the per-peer statistics block exposed by Peer.Stats —
// transmit/receive counters, FEC corrections, CRC errors, retries.
type LinkStats = link.Stats

// DefaultLinkConfig returns the link parameters used by the paper's
// analysis (p_coalescing = 0.1, 128-flit replay window).
func DefaultLinkConfig(p Protocol) LinkConfig { return link.DefaultConfig(p) }

// Fabric is a live end-to-end stack driven by the discrete-event engine.
type Fabric = core.Fabric

// NewFabric builds a fabric from the configuration.
func NewFabric(cfg Config) (*Fabric, error) { return core.NewFabric(cfg) }

// MustNewFabric is NewFabric panicking on error.
func MustNewFabric(cfg Config) *Fabric { return core.MustNewFabric(cfg) }

// Experiment drives a line-rate workload through a fabric and accounts
// failures per the paper's taxonomy.
type Experiment = core.Experiment

// Result is the outcome of one experiment.
type Result = core.Result

// FailureCounts is the Section 7.1 failure taxonomy measured at the
// application boundary.
type FailureCounts = core.FailureCounts

// RunComparison runs the same workload across all three protocol variants.
func RunComparison(base Config, n int) map[Protocol]Result {
	return core.RunComparison(base, n)
}

// Runner is the parallel sharded experiment pool. It shards a job set —
// a SweepGrid or N Monte-Carlo trials — across Workers goroutines with
// deterministic per-shard RNG derivation from BaseSeed, so any worker
// count reproduces bit-identical merged results. The zero value runs with
// GOMAXPROCS workers and base seed 0.
type Runner = runner.Pool

// SweepGrid enumerates a protocol × levels × BER × seed experiment job
// set. Empty axes inherit the single value from Base.
type SweepGrid = core.Grid

// Sweep runs every cell of the grid across the pool's workers, each on
// its own single-threaded engine, and returns results in cell order.
// Results are bit-identical at any worker count for a fixed BaseSeed.
func Sweep(ctx context.Context, pool Runner, grid SweepGrid) ([]Result, error) {
	return core.RunGrid(ctx, pool, grid)
}

// Fig4Report is the outcome of the Fig. 4 link-layer drop scenario.
type Fig4Report = core.Fig4Report

// RunFig4 reproduces the paper's Fig. 4: a silent switch drop followed by
// an AckNum-carrying flit. Under CXL it yields out-of-order delivery;
// under RXL the ISN check detects the drop.
func RunFig4(p Protocol) Fig4Report { return core.RunFig4(p) }

// Fig5Report is the outcome of the Fig. 5 transaction-layer scenarios.
type Fig5Report = core.Fig5Report

// RunFig5a reproduces Fig. 5a (duplicate request execution).
func RunFig5a(p Protocol) Fig5Report { return core.RunFig5a(p) }

// RunFig5b reproduces Fig. 5b (out-of-order data within a CQID).
func RunFig5b(p Protocol) Fig5Report { return core.RunFig5b(p) }

// Reliability is the closed-form failure-rate model of Section 7.1
// (Eq. 1–10 and Fig. 8).
type Reliability = reliability.Params

// DefaultReliability returns the paper's parameter set (BER 1e-6, 256B
// flits, FER_UC 3e-5, p_coalescing 0.1, 500M flits/s).
func DefaultReliability() Reliability { return reliability.DefaultParams() }

// PathFERSample is a multi-hop Monte-Carlo flit error rate measurement:
// the probability that a flit is struck on any crossing of an H-hop
// mesh/chain path, measured on the shared error-event schedule.
type PathFERSample = reliability.PathFERSample

// MeasurePathFER estimates the H-hop path flit error rate on the shared
// error-event schedule, bulk-advancing whole clean traversals — the
// mesh-aware generalization of the single-link schedule Monte Carlo,
// bit-identical to the per-hop byte-level reference for equal seeds.
func MeasurePathFER(ber float64, hops, flits int, seed uint64) PathFERSample {
	return reliability.MeasureFERPathSchedule(ber, hops, flits, seed)
}

// Fig8Point is one switching level of the Fig. 8 FIT comparison.
type Fig8Point = reliability.Point

// Fig8 returns the CXL-vs-RXL FIT series for switching levels 0..max.
func Fig8(max int) []Fig8Point { return reliability.DefaultParams().Fig8(max) }

// RareEstimate is a rare-event probability estimate: point value,
// variance of the mean, relative error, and the raw trial/hit counts,
// from the importance-sampling / multilevel-splitting estimators in
// internal/reliability/rarevent.
type RareEstimate = rarevent.Estimate

// RarePoint is one BER of a deep-tail sweep: importance-sampled FER
// (with Eq. 1 in its Analytic field), FER_UC from real FEC decodes, and
// FER_UD composed with the analytic 2^-64 CRC escape.
type RarePoint = reliability.RarePoint

// RareCheckPoint is one BER of the self-validation sweep: the IS
// estimate against naive schedule Monte-Carlo, with their distance in
// combined standard errors.
type RareCheckPoint = reliability.RareCheckPoint

// RareSweep estimates the deep-tail failure chain (FER, FER_UC, FER_UD)
// at each BER on the sharded runner with importance sampling on the
// tilted error-event schedule. relErr is the target relative error of
// each estimate (adaptive trial budget up to maxTrials per quantity);
// relErr <= 0 spends exactly maxTrials. Estimates are bit-identical at
// any worker count for a fixed pool BaseSeed.
func RareSweep(ctx context.Context, pool Runner, bers []float64, relErr float64, maxTrials int) ([]RarePoint, error) {
	return reliability.RareSweep(ctx, pool, bers, 0, relErr, maxTrials, reliability.DefaultShards)
}

// RareSelfCheck cross-validates the importance-sampling machinery
// against naive schedule Monte-Carlo at BERs where both converge
// (1e-6..1e-7); a Sigma within ±3 on every point licenses the deep-tail
// numbers RareSweep reports where no naive cross-check is possible.
func RareSelfCheck(ctx context.Context, pool Runner, bers []float64, flits int) ([]RareCheckPoint, error) {
	return reliability.RareSelfCheck(ctx, pool, bers, flits, reliability.DefaultShards)
}

// Service is the experiment-serving daemon (internal/service): a
// content-addressed result cache in front of an admission-controlled job
// scheduler, exposed over HTTP (see cmd/rxld) and as an http.Handler for
// in-process use. Identical specs are answered from the cache with
// byte-identical results; distinct jobs share the machine under a fixed
// shard-concurrency budget.
type Service = service.Server

// ServiceConfig parameterizes Serve: shard budget, queue depth, cache
// size, optional disk spill. The zero value is production-usable.
type ServiceConfig = service.Config

// JobSpec is the wire form of a serving job: kind ("grid", "sweep",
// "rare", "comparison", "rare-selfcheck", "scenario"), seed, scheduling
// hints, and exactly one payload.
type JobSpec = service.JobSpec

// JobView is a job's externally visible state: status, cache provenance,
// result document, and timing.
type JobView = service.JobView

// ServiceStats is the /v1/statsz document: queue depth, shard budget
// utilization, cache hit rate, jobs served.
type ServiceStats = service.Stats

// ServiceEvent is one entry of a job's SSE progress stream.
type ServiceEvent = service.Event

// Serve starts an in-process serving daemon. The returned Service is an
// http.Handler ready to mount on any listener (cmd/rxld does exactly
// that); close it to cancel live jobs and stop admission.
func Serve(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// Client is the typed serving client: Submit/Wait/Stream/Cancel/Run
// against a daemon, over TCP or in-process. Both paths traverse the same
// HTTP handlers, so tests and examples exercise what production serves.
type Client = service.Client

// NewClient returns a client for a daemon at base, e.g.
// "http://127.0.0.1:8080".
func NewClient(base string) *Client { return service.NewClient(base) }

// InProcessClient returns a client wired straight into an in-process
// Service — no socket, same handlers, SSE streaming included.
func InProcessClient(s *Service) *Client { return service.NewInProcessClient(s) }

// FleetRing is the consistent-hash ring placing cache keys on fleet
// daemons (internal/fleet): an immutable vnode ring where placement is a
// pure function of (key, peer set) and adding a peer moves ~1/(N+1) of
// the key space. Routing never changes result bytes — every daemon
// computes the same bytes for a key, so the ring only decides who.
type FleetRing = fleet.Ring

// NewFleetRing builds a ring over the given peer base URLs; vnodes 0
// means the default (128 per peer). The peer list is deduplicated and
// sorted, so any ordering yields the same placement.
func NewFleetRing(peers []string, vnodes int) (*FleetRing, error) {
	return fleet.NewRing(peers, vnodes)
}

// FleetFetchConfig parameterizes a fleet member's peer fetch: its own
// URL, spelled exactly as in the full peer list, and that list. Wire the
// fetcher's Fetch into ServiceConfig.PeerFetch (cmd/rxld does this under
// -fleet-self).
type FleetFetchConfig = fleet.FetchConfig

// NewFleetFetcher returns the miss-path peer fetcher for one daemon of a
// fleet.
func NewFleetFetcher(cfg FleetFetchConfig) (*fleet.Fetcher, error) {
	return fleet.NewFetcher(cfg)
}

// FrontConfig parameterizes a fleet front: the peer list and the
// health-probe timing.
type FrontConfig = fleet.FrontConfig

// Front is the stateless fleet router: it normalizes and keys each
// submission, forwards it to the key's ring owner (failing over past
// dead peers in ring order), and rewrites job handles so
// GET/DELETE/events find the daemon that issued them. It is an
// http.Handler; cmd/rxld serves one under -fleet.
type Front = fleet.Front

// NewFront builds a fleet front over the given daemons.
func NewFront(cfg FrontConfig) (*Front, error) { return fleet.NewFront(cfg) }

// Performance is the bandwidth-loss model of Section 7.2 (Eq. 11–14).
type Performance = perf.Params

// DefaultPerformance returns the paper's timing (2 ns flits, 100 ns retry,
// FER_UC 3e-5).
func DefaultPerformance() Performance { return perf.DefaultParams() }

// HardwareReport prices the ISN retrofit at the gate level (Section 7.3).
type HardwareReport = hwcost.Report

// DefaultHardwareReport models the paper's configuration: a 242-byte CRC
// input and a 10-bit sequence number.
func DefaultHardwareReport() HardwareReport { return hwcost.DefaultReport() }

// MeshNode is one endpoint of a NoC, managing a link peer per remote node.
type MeshNode = switchfab.MeshNode

// MeshFlow is one unidirectional stream of a mesh workload, identified by
// source and destination node coordinates.
type MeshFlow = core.MeshFlow

// MeshResult is the accounting of a mesh workload run: per-flow failure
// taxonomy, endpoint link statistics, router totals, and per-path channel
// accounting.
type MeshResult = core.MeshResult

// NoC is a W×H 2D-mesh Network-on-Chip with XY routing — the paper's
// future-work extension of ISN beyond scale-out fabrics (Section 8).
// Every router terminates FEC per hop; under RXL the ISN-bearing CRC
// passes through end to end. Error injection is schedule-driven per
// source→destination path (one shared error-event schedule consumed
// end-to-end, whole-path grants at the injection wire), so clean
// multi-hop traversals cost one schedule consultation instead of one per
// hop.
type NoC = core.MeshFabric

// NewNoC builds a w×h mesh NoC. The Config supplies protocol, BER/burst,
// seed, timing overrides, and NoFastPath; Levels and switch-specific
// fields are ignored.
func NewNoC(w, h int, cfg Config) (*NoC, error) {
	return core.NewTopologyFabric(cfg, Topology{Kind: core.TopoMesh, W: w, H: h})
}

// NewTorus builds a w×h 2D-torus NoC: wraparound row/column rings with
// minimal-direction routing, everything else as NewNoC.
func NewTorus(w, h int, cfg Config) (*NoC, error) {
	return core.NewTopologyFabric(cfg, Topology{Kind: core.TopoTorus, W: w, H: h})
}

// Topology selects the fabric shape of a scenario cell: a 2D mesh or a
// 2D torus (wraparound rings, minimal-direction routing).
type Topology = core.Topology

// Topology kinds.
const (
	TopoMesh  = core.TopoMesh
	TopoTorus = core.TopoTorus
)

// WorkloadSpec selects and parameterizes a spatial traffic generator:
// uniform random, zipf hot-spot, transpose/bit-reverse permutation,
// single-sink incast, or trace-driven replay. Generation is a pure
// function of (spec, geometry, seed).
type WorkloadSpec = workload.Spec

// Workload kinds.
const (
	WorkloadUniform    = workload.KindUniform
	WorkloadZipf       = workload.KindZipf
	WorkloadTranspose  = workload.KindTranspose
	WorkloadBitReverse = workload.KindBitReverse
	WorkloadSingleSink = workload.KindSingleSink
	WorkloadReplay     = workload.KindReplay
)

// FaultScript is a deterministic scripted fault campaign — lane degrade,
// transient BER storm, or link flap — applied to a fabric as seed-derived
// engine events, identically on the fast and byte-level paths.
type FaultScript = core.FaultScript

// Fault-campaign kinds.
const (
	FaultNone    = core.FaultNone
	FaultDegrade = core.FaultDegrade
	FaultStorm   = core.FaultStorm
	FaultFlap    = core.FaultFlap
)

// ScenarioGrid enumerates a scenario job set: protocol × topology ×
// workload × fault-campaign × BER × seed. Incompatible (topology,
// workload) pairings are skipped deterministically.
type ScenarioGrid = core.ScenarioGrid

// ScenarioResult is the accounting of one scenario cell.
type ScenarioResult = core.ScenarioResult

// RunScenarios runs every compatible cell of the grid across the pool's
// workers and returns results in cell order, bit-identical at any worker
// count.
func RunScenarios(ctx context.Context, pool Runner, grid ScenarioGrid) ([]ScenarioResult, error) {
	return core.RunScenarioGrid(ctx, pool, grid)
}

// Engine is the discrete-event scheduler driving every fabric: monotone
// lanes for in-order event streams (a wire's arrivals, a route's express
// deliveries) beside a heap of one-off events, drained in one (time,
// schedule-order) sequence by a pump that jumps the clock across
// stretches with no pending events. Fabrics build their own; expose it
// here for custom scenario scripting and engine-level benchmarks.
type Engine = sim.Engine

// NewEngine returns an engine at time 0 with an empty queue.
func NewEngine() *Engine { return sim.NewEngine() }

// Time is a simulation timestamp in picoseconds.
type Time = sim.Time

// Convenient duration units for Config timing fields.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	// FlitTime is the 2 ns serialization time of a 256B flit on a
	// full-speed ×16 CXL 3.0 link.
	FlitTime = sim.FlitTime
)
