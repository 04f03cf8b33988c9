package switchfab

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/rs"
	"repro/internal/sim"
)

// Mesh is a W×H 2D-mesh Network-on-Chip built from the same switching
// elements as the scale-out chains — the paper's future-work direction
// ("extending ISN to other protocols and systems, such as Network-on-Chip
// and chiplet interconnects"). Every hop terminates FEC; under ModeRXL
// the end-to-end CRC (with ISN) passes through every router untouched, so
// a flit crossing ten routers gets the same drop/corruption guarantees as
// one crossing a single switch.
//
// Routing is dimension-ordered (XY): a flit first travels along X to its
// destination column, then along Y — deadlock-free and deterministic,
// which matters because ISN requires in-order single-path delivery
// (Section 5 rules out multi-path for CXL-class protocols).
//
// Error injection is schedule-driven per path, not per wire: every
// (source, destination) pair lazily owns one phy.SharedSchedule, and a
// flit's whole XY traversal consumes one hops-wide window of that stream.
// At the injection wire a clean window grants the flit a path pass, so
// every downstream router crossing skips channel work entirely; struck
// traversals consume the stream hop by hop, landing corruption on the
// exact crossing the schedule assigns it (where that hop's FEC
// termination sees it). The grant policy applies identically to fast-path
// and byte-level flits — only the per-hop byte work differs — which is
// what keeps the two bit-identical (internal/core's mesh differential
// suite).
type Mesh struct {
	W, H int
	Eng  *sim.Engine
	// Routers indexes the switching elements by node ID (NodeID, y*W+x).
	// Every per-node table below is indexed the same way.
	Routers []*Switch

	// out[id][d] is the egress wire of router id toward direction d.
	out [][meshDirs]*link.Wire
	// localSink[id] hands flits addressed to node id to the node
	// AttachNode installed (releasing them while none is). It is the
	// engine sink of both the hop-by-hop latency event and the express
	// delivery event, so neither allocates per flit.
	localSink []func(interface{})
	// ingress[id] is the wire a node uses to inject at its router.
	ingress []*link.Wire

	wires []*link.Wire

	// noExpress disables the express traversal path, forcing every flit
	// through per-hop forwarding events (see MeshConfig.NoExpress).
	noExpress bool

	// ExpressTraversals counts traversals collapsed into up-front wire
	// claims plus a single delivery event; ExpressFallbacks counts
	// routable traversals that paid per-hop events instead — a struck
	// schedule window (the scheduled walk below), a wire with a fault
	// hook, or a fault-configured router.
	// Identical between fast-path and byte-level runs — the express
	// decision never consults the flit's fast-path marks.
	ExpressTraversals uint64
	ExpressFallbacks  uint64

	// routes[src][dst] is the express record of the route from router src
	// to router dst (node IDs), built on the route's first traffic; a
	// router's row is allocated with its first route.
	routes [][]*meshRoute

	// walkFn is the stable event sink of scheduled hop-by-hop walks
	// (struck flits on express-eligible routes), bound once so each walk
	// step carries only its *meshWalk payload.
	walkFn func(interface{})
	// walks holds ended walks for reuse, so a struck flit's walk — and
	// its times slice — allocates only while the number in flight grows.
	walks []*meshWalk

	// wrap marks torus mode: the row/column rings close and routing takes
	// the minimal direction around each ring.
	wrap bool

	// paths[src][dst] is the error-event schedule of the src→dst path,
	// indexed by the flit's routing tags and created on first traffic
	// from a dedicated RNG lineage (deterministic per seed and traffic
	// order). It has a row for every byte, since a corrupted tag may name
	// a node outside the mesh; a row is allocated with its first
	// schedule. nil paths means BER 0 — no error model at all.
	paths   []*[256]*phy.SharedSchedule
	pathRNG *phy.RNG
	ber     float64
	burst   float64
	// berScale is the fault-campaign multiplier currently applied on top
	// of the configured BER (1 outside storm/degrade windows). It steers
	// schedules created after the scale change; SetPathBERScale retunes
	// the already-existing ones.
	berScale float64
	// fec materializes deferred seals when a schedule strikes a deferred
	// flit mid-path.
	fec *rs.Interleaved
}

// Mesh directions.
const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
	meshDirs
)

// MeshConfig carries per-hop timing and the channel error model.
type MeshConfig struct {
	Mode          Mode
	Serialization sim.Time
	Propagation   sim.Time
	RouterLatency sim.Time
	// BER and BurstProb configure the per-path shared error schedules
	// (0 = clean).
	BER       float64
	BurstProb float64
	Seed      uint64
	// Wrap closes the row and column rings, turning the mesh into a 2D
	// torus: every router gains wraparound wires (when the dimension has
	// at least two routers) and dimension-ordered routing takes the
	// minimal direction around each ring, breaking exact ties toward
	// east/south. Everything else — per-hop FEC termination, the (src,dst)
	// routing-tag schedule keying, whole-traversal grants at the ingress
	// wire — is unchanged; only the hop count of a traversal shrinks.
	Wrap bool
	// NoExpress disables the express traversal path: every flit pays one
	// engine event per hop and claims each wire on arrival. Express changes
	// the order in which wires are claimed under cross-traffic (the whole
	// route is claimed at injection), so this is a model ablation, not an
	// optimization toggle — the benchmark measures both sides
	// (switchfab.perhop_flit_ns vs express_flit_ns), and on same-path-only
	// traffic the two produce identical timing, which the express tests
	// pin.
	NoExpress bool
}

// DefaultMeshConfig returns NoC-scale timing: 2 ns flits, 1 ns hops,
// 2 ns router traversal.
func DefaultMeshConfig(mode Mode) MeshConfig {
	return MeshConfig{
		Mode:          mode,
		Serialization: sim.FlitTime,
		Propagation:   sim.Nanosecond,
		RouterLatency: 2 * sim.Nanosecond,
	}
}

// NewMesh builds the W×H mesh. Node IDs are y*W+x, carried in the flit's
// routing byte; W*H must fit in one byte.
func NewMesh(eng *sim.Engine, w, h int, cfg MeshConfig) *Mesh {
	if w < 1 || h < 1 || w*h > 256 {
		panic(fmt.Sprintf("switchfab: mesh %dx%d out of range", w, h))
	}
	m := &Mesh{W: w, H: h, Eng: eng, wrap: cfg.Wrap, berScale: 1, noExpress: cfg.NoExpress,
		routes: make([][]*meshRoute, w*h)}
	if !cfg.NoExpress {
		m.walkFn = m.walkStep
	}
	if cfg.BER > 0 {
		m.paths = make([]*[256]*phy.SharedSchedule, 256)
		m.pathRNG = phy.NewRNG(cfg.Seed)
		m.ber, m.burst = cfg.BER, cfg.BurstProb
		m.fec = flit.NewFEC()
	}

	m.Routers = make([]*Switch, w*h)
	m.out = make([][meshDirs]*link.Wire, w*h)
	m.localSink = make([]func(interface{}), w*h)
	m.ingress = make([]*link.Wire, w*h)
	for id := range m.Routers {
		m.Routers[id] = NewSwitch(fmt.Sprintf("R%d.%d", id%w, id/w), eng, cfg.Mode, cfg.RouterLatency)
		m.localSink[id] = releaseFlit
	}

	mkWire := func(deliver func(*flit.Flit)) *link.Wire {
		wr := link.NewWire(eng, cfg.Serialization, cfg.Propagation, deliver)
		m.wires = append(m.wires, wr)
		return wr
	}

	// Inter-router wires: each delivers into the neighbor's pipeline
	// behind a hop crossing of the flit's path schedule. Node-ingress
	// wires are the injection points where whole-path grants are taken.
	// A direction has a wire when stepping that way stays inside the mesh,
	// or — under Wrap, in a dimension of at least two routers — wraps
	// around it (east from x=W-1 lands on x=0, and so on); neighbor
	// resolves both, so forwarding needs no wrap-specific cases. Wires are
	// created x-major: flap campaigns pick their wire by index in Wires.
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			id := y*w + x
			inside := [meshDirs]bool{dirEast: x+1 < w, dirWest: x > 0, dirSouth: y+1 < h, dirNorth: y > 0}
			wraps := [meshDirs]bool{dirEast: w > 1, dirWest: w > 1, dirSouth: h > 1, dirNorth: h > 1}
			for d := 0; d < meshDirs; d++ {
				if inside[d] || cfg.Wrap && wraps[d] {
					m.out[id][d] = mkWire(m.hopArrival(m.neighbor(id, d)))
				}
			}
			m.ingress[id] = mkWire(m.injectArrival(id))
		}
	}
	return m
}

// dimDist is the router count a flit crosses along one dimension: the
// absolute distance on a mesh, the minimal ring distance on a torus.
func (m *Mesh) dimDist(cur, dst, size int) int {
	d := abs(dst - cur)
	if m.wrap && size-d < d {
		d = size - d
	}
	return d
}

// dimStep is the per-dimension routing decision at a router: -1, 0, or +1
// toward the destination coordinate. On a torus the minimal ring direction
// wins; exact ties (even ring sizes, antipodal destination) break toward
// +1 (east/south) so routes stay deterministic.
func (m *Mesh) dimStep(cur, dst, size int) int {
	if cur == dst {
		return 0
	}
	if m.wrap {
		fwd := dst - cur
		if fwd < 0 {
			fwd += size
		}
		if fwd <= size-fwd {
			return 1
		}
		return -1
	}
	if dst > cur {
		return 1
	}
	return -1
}

// HopsBetween counts the wire crossings of a (sx,sy)→(dx,dy) traversal:
// the node-ingress wire plus the routing distance, topology-aware. It is
// the hop count whole-traversal grants consume at injection.
func (m *Mesh) HopsBetween(sx, sy, dx, dy int) int {
	return 1 + m.dimDist(sx, dx, m.W) + m.dimDist(sy, dy, m.H)
}

// pathSched returns (creating on first use) the shared error schedule of
// the src→dst path, at the BER currently in force (base × fault scale).
// Both routing tags sit inside the CRC-protected payload, so a corrupted
// tag resolves the same (wrong) schedule on the fast and byte-level paths
// alike.
func (m *Mesh) pathSched(src, dst byte) *phy.SharedSchedule {
	row := m.paths[src]
	if row == nil {
		row = new([256]*phy.SharedSchedule)
		m.paths[src] = row
	}
	s := row[dst]
	if s == nil {
		s = phy.NewSharedSchedule(m.ber*m.berScale, m.burst, m.pathRNG.Split(), flit.Bits)
		row[dst] = s
	}
	return s
}

// SetPathBERScale multiplies the configured BER of every path schedule —
// the mesh-wide primitive behind scripted lane-degrade and BER-storm
// campaigns (scale 1 restores the configured rate). Existing schedules
// redraw their pending error gap at the new rate from their own RNG
// streams, and schedules created later inherit the scale, so the effect
// is identical no matter which paths have carried traffic yet. On a
// clean mesh (BER 0) there is no error model to scale and the call is a
// no-op. Callers on the fast==byte-level differential contract must
// apply scale changes as simulation events, so both runs retune each
// schedule at the same point of its consumption stream.
func (m *Mesh) SetPathBERScale(scale float64) {
	if scale <= 0 {
		panic("switchfab: non-positive BER scale")
	}
	m.berScale = scale
	// Iteration order does not matter: each schedule redraws from its own
	// RNG stream, independent of the others.
	m.eachPath(func(_, _ int, s *phy.SharedSchedule) { s.Channel().SetBER(m.ber * scale) })
}

// eachPath calls fn on every schedule created so far, in ascending
// (src, dst) order.
func (m *Mesh) eachPath(fn func(src, dst int, s *phy.SharedSchedule)) {
	for src, row := range m.paths {
		if row == nil {
			continue
		}
		for dst, s := range row {
			if s != nil {
				fn(src, dst, s)
			}
		}
	}
}

// injectArrival wraps router id's pipeline for its node-ingress wire:
// the flit's whole traversal opens here. hops counts every wire crossing
// of the XY route — this ingress wire plus the Manhattan distance to the
// destination router; flits with an unroutable destination consume one
// crossing and die at this router.
//
// A flit that wins the whole-traversal grant (or rides a clean BER-0
// mesh, where every traversal is trivially clean) has fully deterministic
// mesh timing, so the traversal tries to go express: claim every wire of
// the route up front and schedule exactly one delivery event. A struck
// flit on the same (express-eligible) route claims its wires up front too
// but walks them with per-hop events (claimRoute) — byte work happens
// at each hop, only the claim timing moves to injection, which is what
// keeps every claim on a path in injection order. Routes express cannot
// claim fall back to the lazy per-hop pipeline below. The express
// decision depends only on the grant verdict and route state — never on
// the flit's fast-path marks — so fast-path and byte-level runs take it
// identically.
func (m *Mesh) injectArrival(id int) func(*flit.Flit) {
	pipeline := m.routerIngress(id)
	if m.paths == nil && m.noExpress {
		return pipeline
	}
	return func(f *flit.Flit) {
		// Both routing tags are read before the injection crossing can
		// corrupt the image: the express decision and the schedule key use
		// the flit's true path identity.
		src, dst := f.Route()
		var rt *meshRoute
		hops := 1
		if int(dst) < len(m.Routers) {
			rt = m.route(id, int(dst))
			hops = len(rt.routers)
		}
		granted := true
		if m.paths != nil {
			granted = link.BeginPathTraversal(m.pathSched(src, dst), m.fec, f, hops)
		}
		if rt != nil && !m.noExpress {
			eligible := rt.expressEligible()
			if granted && eligible {
				m.ExpressTraversals++
				m.claimRoute(f, rt, nil)
				return
			}
			m.ExpressFallbacks++
			// hops == 1 is local delivery at the injection router: nothing
			// to claim, the lazy pipeline handles it identically.
			if eligible && hops > 1 {
				m.claimRoute(f, rt, m.newWalk(f, rt))
				return
			}
		}
		pipeline(f)
	}
}

// meshRoute is the express record of one (ingress router, destination
// router) route, built on its first traffic: the routers the XY route
// visits, ingress first and destination last, the egress wire leaving
// each toward the next, and the lane its express deliveries ride. Every
// flit of an eligible route claims the route's wires at injection, so
// the route's express deliveries land in claim order — the lane's
// in-order contract.
type meshRoute struct {
	routers []*Switch
	wires   []*link.Wire // wires[i] leaves routers[i]
	dst     int          // destination router
	lane    *sim.Lane
}

// route returns (building on first use) the record of the route from
// router src to router dst, which must both be inside the mesh.
func (m *Mesh) route(src, dst int) *meshRoute {
	row := m.routes[src]
	if row == nil {
		row = make([]*meshRoute, len(m.Routers))
		m.routes[src] = row
	}
	if rt := row[dst]; rt != nil {
		return rt
	}
	hops := m.HopsBetween(src%m.W, src/m.W, dst%m.W, dst/m.W)
	rt := &meshRoute{
		routers: make([]*Switch, 0, hops),
		wires:   make([]*link.Wire, 0, hops-1),
		dst:     dst,
		lane:    m.Eng.NewLane(),
	}
	for cur := src; ; {
		rt.routers = append(rt.routers, m.Routers[cur])
		d := m.routeDir(cur, dst)
		if d < 0 {
			break
		}
		rt.wires = append(rt.wires, m.out[cur][d])
		cur = m.neighbor(cur, d)
	}
	row[dst] = rt
	return rt
}

// meshWalk is the event payload of a scheduled hop-by-hop walk: a struck
// flit on an express-eligible route. Its wires were all claimed at
// injection (claim order identical to express), but it still pays one
// event per hop at the pre-reserved arrival times, crossing its path
// schedule and terminating FEC at every router like the lazy pipeline.
type meshWalk struct {
	f     *flit.Flit
	rt    *meshRoute
	hop   int        // index of the router the next walkStep arrives at
	times []sim.Time // times[i]: arrival at rt.routers[i]
}

// newWalk returns a walk of f along rt, reusing an ended one when it can.
func (m *Mesh) newWalk(f *flit.Flit, rt *meshRoute) *meshWalk {
	var wk *meshWalk
	if n := len(m.walks) - 1; n >= 0 {
		wk = m.walks[n]
		m.walks = m.walks[:n]
	} else {
		wk = new(meshWalk)
	}
	if hops := len(rt.routers); cap(wk.times) < hops {
		wk.times = make([]sim.Time, 0, hops)
	}
	wk.f, wk.rt, wk.hop, wk.times = f, rt, 0, wk.times[:0]
	return wk
}

// endWalk recycles a walk whose flit was delivered or dropped.
func (m *Mesh) endWalk(wk *meshWalk) {
	wk.f, wk.rt = nil, nil
	m.walks = append(m.walks, wk)
}

// claimRoute claims every wire of an expressEligible route at injection,
// in route order, and schedules the traversal's one event.
// The claim math per hop is exactly the SendAfter fold — serialization
// starts at max(arrival+latency, wire-free) — so on same-path-only
// traffic the claimed timing is bit-identical to hop-by-hop. Under
// cross-traffic the claim *order* changes (the whole route is claimed at
// injection), which is a change to the fabric model itself and, like the
// whole-traversal grant policy, applies identically to fast-path and
// byte-level runs. On an eligible path *every* flit claims this way, so
// per-path delivery follows injection order (ISN's ground rule) without
// express ever blocking behind a draining traversal.
//
// A granted flit (wk == nil) goes express: each router's pipeline runs
// inline and the one event is the delivery at the analytically-known
// arrival time, on the route's lane. Running process() at claim time is
// unobservable: for an eligible route it touches only the flit image and
// the router stats, draws no RNG, and cannot drop a granted (hence
// uncorrupted, CRC-valid) flit.
//
// A struck flit walks (wk != nil): only the injection router runs now,
// exactly when the lazy pipeline would, and the one event is the first
// walkStep at the first reserved arrival. The walk pays one event per hop
// from there, crossing its path schedule and terminating FEC
// byte-for-byte like the lazy pipeline; only the claim *timing* moved to
// injection, and the claim floor is max(now, earliest), so the reserved
// windows — and every queue-depth statistic — are identical to the lazy
// claims on uncontended paths. The route is fixed from the pre-crossing
// routing tags (source routing): corruption that rewrites the route bytes
// in flight changes which schedule later crossings consume — same as the
// lazy pipeline — but not the wires the flit occupies.
func (m *Mesh) claimRoute(f *flit.Flit, rt *meshRoute, wk *meshWalk) {
	arrive := m.Eng.Now()
	last := len(rt.wires)
	for i, r := range rt.routers {
		if wk != nil {
			wk.times = append(wk.times, arrive)
		}
		inline := i == 0 || wk == nil
		if inline && !r.process(f) {
			// A struck flit may be uncorrectable at its injection router,
			// which then claims nothing; a granted flit cannot be dropped,
			// the release stays in case a future pipeline stage can reject
			// clean flits.
			flit.Release(f)
			if wk != nil {
				m.endWalk(wk)
			}
			return
		}
		if i == last {
			break
		}
		if inline {
			r.Stats.Forwarded++
			f.TakePathPass() // a granted flit spends one per wire; a walk holds none
		}
		arrive = rt.wires[i].Reserve(arrive + r.Latency)
	}
	if wk != nil {
		wk.hop = 1
		m.Eng.AtArg(wk.times[1], m.walkFn, wk)
		return
	}
	r := rt.routers[last]
	r.Stats.DeliveredLocal++
	rt.lane.AtArg(arrive+r.Latency, m.localSink[rt.dst], f)
}

// walkStep is one router arrival of a scheduled walk: cross the path
// schedule, terminate FEC, then deliver locally or chain the next step at
// its pre-reserved time. Scheduling each step from its predecessor — not
// all at once at injection — keeps the engine's (time, schedule-order)
// trajectory aligned with the lazy pipeline's, and means a flit dropped
// mid-walk leaves no dangling event behind.
func (m *Mesh) walkStep(p interface{}) {
	wk := p.(*meshWalk)
	f, rt := wk.f, wk.rt
	if m.paths != nil {
		m.crossHop(f)
	}
	r := rt.routers[wk.hop]
	if !r.process(f) {
		flit.Release(f)
		m.endWalk(wk)
		return
	}
	if wk.hop == len(rt.wires) {
		m.endWalk(wk)
		m.deliverLocal(r, rt.dst, f)
		return
	}
	r.Stats.Forwarded++
	wk.hop++
	m.Eng.AtArg(wk.times[wk.hop], m.walkFn, wk)
}

// routeDir is the dimension-ordered routing decision at router cur for
// destination router dst: an egress direction, or -1 for local delivery.
// The lazy pipeline routes through it hop by hop and route records are
// built from it, so an express or scheduled walk visits precisely the
// routers and wires the hop-by-hop path would.
func (m *Mesh) routeDir(cur, dst int) int {
	if sx := m.dimStep(cur%m.W, dst%m.W, m.W); sx > 0 {
		return dirEast
	} else if sx < 0 {
		return dirWest
	}
	if sy := m.dimStep(cur/m.W, dst/m.W, m.H); sy > 0 {
		return dirSouth
	} else if sy < 0 {
		return dirNorth
	}
	return -1
}

// neighbor returns the router that the direction-d egress wire of router
// id lands on, wraparound included.
func (m *Mesh) neighbor(id, d int) int {
	cx, cy := id%m.W, id/m.W
	switch d {
	case dirEast:
		if cx++; cx == m.W {
			cx = 0
		}
	case dirWest:
		if cx--; cx < 0 {
			cx = m.W - 1
		}
	case dirSouth:
		if cy++; cy == m.H {
			cy = 0
		}
	case dirNorth:
		if cy--; cy < 0 {
			cy = m.H - 1
		}
	}
	return cy*m.W + cx
}

// expressEligible reports whether the route may be claimed up front at
// injection by claimRoute — express for a granted flit, a scheduled walk
// for a struck one:
//
//   - No route router carries an internal fault point (hook or
//     probabilistic flip): process() must stay deterministic and
//     RNG-silent when run at claim time instead of arrival time.
//   - Every route wire is ExpressClaimable — no wire-attached error
//     model, no fault hook (fault scripts install theirs before the run).
//     In-flight flits do not block: on an eligible path every flit claims
//     its wires at injection, so claims — and therefore per-wire
//     serialization and per-path delivery — follow injection order, which
//     is ISN's in-order contract.
//
// Both are read on every injection, so a fault point installed mid-run
// takes effect at the next flit. Eligibility is a property of the route,
// not the flit, so a path is never in a mixed claim regime.
func (rt *meshRoute) expressEligible() bool {
	for _, r := range rt.routers {
		if r.InternalHook != nil || r.InternalBitFlipProb > 0 {
			return false
		}
	}
	for _, w := range rt.wires {
		if w == nil || !w.ExpressClaimable() {
			return false
		}
	}
	return true
}

// hopArrival wraps router id's pipeline for an inter-router wire,
// putting a crossing of the flit's path schedule in front of it.
func (m *Mesh) hopArrival(id int) func(*flit.Flit) {
	pipeline := m.routerIngress(id)
	if m.paths == nil {
		return pipeline
	}
	return func(f *flit.Flit) {
		m.crossHop(f)
		pipeline(f)
	}
}

// crossHop is one inter-router crossing of the flit's path schedule: a
// path pass (whole traversal pre-consumed at injection) skips channel
// work entirely; otherwise the crossing consumes one unit of the schedule
// the flit's — possibly already corrupted — routing tags select.
func (m *Mesh) crossHop(f *flit.Flit) {
	if f.TakePathPass() {
		return
	}
	src, dst := f.Route()
	link.CrossPathUnit(m.pathSched(src, dst), m.fec, f)
}

// releaseFlit is the local sink of a node with nothing attached.
func releaseFlit(p interface{}) { flit.Release(p.(*flit.Flit)) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// NodeID returns the routing tag of node (x,y): the index of its router
// in Routers.
func (m *Mesh) NodeID(x, y int) byte {
	if x < 0 || x >= m.W || y < 0 || y >= m.H {
		panic("switchfab: node out of mesh")
	}
	return byte(y*m.W + x)
}

// AttachNode installs the delivery function of node (x,y) and returns the
// wire its peers transmit into.
func (m *Mesh) AttachNode(x, y int, deliver func(*flit.Flit)) *link.Wire {
	if deliver == nil {
		panic("switchfab: nil node deliver")
	}
	id := m.NodeID(x, y)
	m.localSink[id] = func(p interface{}) { deliver(p.(*flit.Flit)) }
	return m.ingress[id]
}

// Wires returns every wire for bulk channel/fault attachment (inter-router
// and node-ingress).
func (m *Mesh) Wires() []*link.Wire { return m.wires }

// routerIngress builds the deliver function of router id: run the
// switch pipeline, then forward by XY dimension-ordered routing. The
// router latency is folded into the egress wire claim (SendAfter), so a
// multi-hop traversal costs one engine event per hop — the wire arrival —
// instead of two. Local deliveries have no egress wire and keep their
// latency event so the node still receives at arrival+Latency.
func (m *Mesh) routerIngress(id int) func(*flit.Flit) {
	r := m.Routers[id]
	return func(f *flit.Flit) {
		if !r.process(f) {
			flit.Release(f)
			return
		}
		_, dst := f.Route()
		if int(dst) >= len(m.Routers) {
			r.Stats.DroppedNoRoute++
			flit.Release(f)
			return
		}
		d := m.routeDir(id, int(dst))
		if d < 0 {
			m.deliverLocal(r, id, f)
			return
		}
		w := m.out[id][d]
		if w == nil {
			r.Stats.DroppedNoRoute++
			flit.Release(f)
			return
		}
		r.Stats.Forwarded++
		w.SendAfter(f, m.Eng.Now()+r.Latency)
	}
}

// deliverLocal hands a flit that reached its destination router id to
// the attached node after the router latency. Local delivery is accounted
// on its own, not as a forward, so TotalStats().Forwarded equals the
// flits' actual inter-router hops (see the per-hop audit in
// internal/core's mesh stats test). The sink is the stable per-router
// one, so the latency event carries only the flit.
func (m *Mesh) deliverLocal(r *Switch, id int, f *flit.Flit) {
	r.Stats.DeliveredLocal++
	if r.Latency > 0 {
		m.Eng.ScheduleArg(r.Latency, m.localSink[id], f)
	} else {
		m.localSink[id](f)
	}
}

// TotalStats sums statistics across every router. QueuePeak is the max
// of the per-node peaks (a depth, not a count).
func (m *Mesh) TotalStats() Stats {
	var t Stats
	for id, r := range m.Routers {
		t.add(r.Stats)
		t.QueuePeak = max(t.QueuePeak, m.nodeQueuePeak(id))
	}
	return t
}

// nodeQueuePeak is the queue-depth high-water mark of node id: the max
// across its router's egress wires and its node-ingress wire (the node's
// injection backlog). Queue depth lives on the wires — the mesh is
// output-queued, a forward queues on the egress wire's serialization
// window — and express reservations use the same claim accounting as
// hop-by-hop sends, so the peaks are identical across express, fast-path,
// and byte-level runs.
func (m *Mesh) nodeQueuePeak(id int) uint64 {
	p := m.ingress[id].QueuePeak()
	for _, w := range m.out[id] {
		if w != nil {
			p = max(p, w.QueuePeak())
		}
	}
	return p
}

// NodeQueuePeaks returns the per-node queue-depth high-water marks,
// indexed [y][x] (rows of the mesh, matching node-ID order) — the real
// backpressure numbers of the single-sink/incast scenarios.
func (m *Mesh) NodeQueuePeaks() [][]uint64 {
	out := make([][]uint64, m.H)
	for y := 0; y < m.H; y++ {
		out[y] = make([]uint64, m.W)
		for x := 0; x < m.W; x++ {
			out[y][x] = m.nodeQueuePeak(y*m.W + x)
		}
	}
	return out
}

// HookDrops sums the flits silently dropped by scripted fault hooks
// across every wire of the mesh.
func (m *Mesh) HookDrops() uint64 {
	var t uint64
	for _, w := range m.wires {
		t += w.HookDropped
	}
	return t
}

// PathStat is the channel accounting of one source→destination shared
// schedule.
type PathStat struct {
	Src, Dst                                         byte
	BitsSeen, BitsFlipped, ErrorEvents, UnitsTouched uint64
}

// PathStats snapshots the accounting of every path schedule created so
// far, ordered by (src, dst) — the mesh-level analogue of reading each
// wire's Channel stats, used by the fast-vs-slow differential suite.
func (m *Mesh) PathStats() []PathStat {
	if m.paths == nil {
		return nil
	}
	out := []PathStat{}
	m.eachPath(func(src, dst int, s *phy.SharedSchedule) {
		ch := s.Channel()
		out = append(out, PathStat{
			Src: byte(src), Dst: byte(dst),
			BitsSeen: ch.BitsSeen, BitsFlipped: ch.BitsFlipped,
			ErrorEvents: ch.ErrorEvents, UnitsTouched: ch.UnitsTouched,
		})
	})
	return out
}

// MeshNode bundles the per-flow link peers of one mesh node: one peer per
// remote node it talks to, demultiplexed by source tag on delivery.
type MeshNode struct {
	ID      byte
	eng     *sim.Engine
	ingress *link.Wire
	linkCfg link.Config
	// peers[tag] is the peer of the flow with remote node tag (nil while
	// there is none).
	peers [256]*link.Peer
}

// NewMeshNode attaches a node at (x,y) and returns its peer manager.
// linkCfg is the base link configuration; PeerTo fills the routing tags
// per flow.
func NewMeshNode(m *Mesh, x, y int, linkCfg link.Config) *MeshNode {
	n := &MeshNode{ID: m.NodeID(x, y), eng: m.Eng, linkCfg: linkCfg}
	n.ingress = m.AttachNode(x, y, func(f *flit.Flit) {
		src, _ := f.Route()
		if p := n.peers[src]; p != nil {
			p.Receive(f)
		} else {
			flit.Release(f) // no flow from src: the demux is the flit's last consumer
		}
	})
	return n
}

// PeerTo returns (creating on first use) this node's link peer for the
// flow to the given remote node.
func (n *MeshNode) PeerTo(remote byte) *link.Peer {
	if p := n.peers[remote]; p != nil {
		return p
	}
	cfg := n.linkCfg
	cfg.StampRoute = true
	cfg.SrcTag = n.ID
	cfg.RouteTag = remote
	p := link.NewPeer(fmt.Sprintf("n%d->n%d", n.ID, remote), n.eng, cfg)
	p.Attach(n.ingress)
	n.peers[remote] = p
	return p
}
