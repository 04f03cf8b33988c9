// Package core wires the substrates — event simulator, BER schedules, link
// layer, switches, and transaction agents — into complete end-to-end
// protocol stacks and runnable experiments. It is the layer the public rxl
// package, the command-line tools, and the benchmark harness sit on.
//
// A Fabric is two endpoints joined across a configurable number of
// switching levels with one bit-error schedule per direction.
// Experiments inject a workload at endpoint A, validate deliveries at
// endpoint B with the paper's failure taxonomy (Section 7.1) — Fail_data
// for corrupted payloads reaching the application, Fail_order for
// misordered or duplicated deliveries — and report link, switch, and
// bandwidth statistics.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

// Config describes one end-to-end fabric.
type Config struct {
	// Protocol selects CXL, CXL-without-piggybacking, or RXL.
	Protocol link.Protocol
	// Levels is the number of switching levels (0 = direct connection).
	Levels int
	// BER is the per-link bit error rate (0 disables error injection).
	BER float64
	// BurstProb is the DFE burst-extension probability of the channel.
	BurstProb float64
	// InternalFlipProb is the per-flit probability of a single-bit
	// internal corruption inside each switch (Section 6.3).
	InternalFlipProb float64
	// Seed derives every RNG in the fabric; equal seeds give bit-exact
	// reruns.
	Seed uint64
	// LinkConfig overrides the link-layer configuration, except its
	// Protocol field, which always follows Protocol above. Nil means
	// link.DefaultConfig(Protocol).
	LinkConfig *link.Config
	// NoFastPath is the one switch between the two paths: true runs the
	// byte-level reference on every link (no deferred seals, no
	// error-event schedule skips), false the fast path. It decides
	// link.Config.FastPath whatever LinkConfig holds; the differential
	// tests prove the two settings produce bit-identical results for
	// identical seeds.
	NoFastPath bool
	// NoExpress disables the express traversal path on mesh fabrics:
	// every flit pays one engine event per hop and claims each wire on
	// arrival instead of claiming its whole route at injection. Unlike
	// NoFastPath this is a model ablation, not a reference toggle —
	// express changes the wire claim order under cross-traffic, and the
	// benchmark measures both sides — so the differential contract
	// compares fast vs byte-level at equal NoExpress, and the express
	// test suite separately pins express == hop-by-hop timing on
	// same-path-only traffic. Ignored by chain fabrics.
	NoExpress bool
	// Serialization, Propagation and SwitchLatency override the default
	// per-hop timing when positive; zero keeps the default, and Validate
	// refuses a negative one.
	Serialization sim.Time
	Propagation   sim.Time
	SwitchLatency sim.Time
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Levels < 0:
		return fmt.Errorf("core: negative switching levels %d", c.Levels)
	case c.BER < 0 || c.BER > 1:
		return fmt.Errorf("core: BER %g out of [0,1]", c.BER)
	case c.BurstProb < 0 || c.BurstProb >= 1:
		return fmt.Errorf("core: BurstProb %g out of [0,1)", c.BurstProb)
	case c.InternalFlipProb < 0 || c.InternalFlipProb > 1:
		return fmt.Errorf("core: InternalFlipProb %g out of [0,1]", c.InternalFlipProb)
	case c.Serialization < 0 || c.Propagation < 0 || c.SwitchLatency < 0:
		return fmt.Errorf("core: negative timing override (Serialization %d, Propagation %d, SwitchLatency %d)",
			c.Serialization, c.Propagation, c.SwitchLatency)
	}
	if err := c.linkConfig().Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// linkConfig resolves the link-layer configuration of every peer a fabric
// builds from this Config: the paper's defaults for Protocol, replaced by
// *LinkConfig when set, with Protocol forced back to the fabric's own (so
// the peers, the switch mode and the result label cannot disagree) and
// FastPath set from NoFastPath alone.
func (c Config) linkConfig() link.Config {
	lcfg := link.DefaultConfig(c.Protocol)
	if c.LinkConfig != nil {
		lcfg = *c.LinkConfig
		lcfg.Protocol = c.Protocol
	}
	lcfg.FastPath = !c.NoFastPath
	return lcfg
}

// Fabric is a live end-to-end stack: engine, chain topology, schedules.
type Fabric struct {
	Cfg   Config
	Eng   *sim.Engine
	Chain *switchfab.Chain
	// FwdSched and BwdSched are the per-direction shared error-event
	// schedules the chain consumes (nil when BER is 0): each A→B
	// traversal consumes one levels+1-hop window of FwdSched end-to-end,
	// with the whole-path grant taken at the first wire, and symmetrically
	// for B→A.
	FwdSched, BwdSched *phy.SharedSchedule
	rng                *phy.RNG
}

// NewFabric builds a fabric from the configuration.
func NewFabric(cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	ccfg := switchfab.DefaultChainConfig(cfg.Protocol, cfg.Levels)
	ccfg.LinkCfg = cfg.linkConfig()
	if cfg.Serialization > 0 {
		ccfg.Serialization = cfg.Serialization
	}
	if cfg.Propagation > 0 {
		ccfg.Propagation = cfg.Propagation
	}
	if cfg.SwitchLatency > 0 {
		ccfg.SwitchLatency = cfg.SwitchLatency
	}

	f := &Fabric{Cfg: cfg, Eng: eng, rng: phy.NewRNG(cfg.Seed)}
	if cfg.BER > 0 {
		// One shared schedule per direction: the whole A→B (and B→A) path
		// is one error-event stream, consumed a levels+1-hop window per
		// flit. Both are split before the switches' internal-fault
		// streams, so every RNG keeps its place in the fabric's lineage.
		f.FwdSched = phy.NewSharedSchedule(cfg.BER, cfg.BurstProb, f.rng.Split(), flit.Bits)
		f.BwdSched = phy.NewSharedSchedule(cfg.BER, cfg.BurstProb, f.rng.Split(), flit.Bits)
	}
	f.Chain = switchfab.NewChain(eng, ccfg, f.FwdSched, f.BwdSched)
	if cfg.InternalFlipProb > 0 {
		for _, s := range f.Chain.Switches {
			s.SeedInternalFaults(cfg.InternalFlipProb, f.rng.Split())
		}
	}
	return f, nil
}

// MustNewFabric is NewFabric panicking on error, for tests and examples.
func MustNewFabric(cfg Config) *Fabric {
	f, err := NewFabric(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// A returns the initiating endpoint's link peer.
func (f *Fabric) A() *link.Peer { return f.Chain.A }

// B returns the destination endpoint's link peer.
func (f *Fabric) B() *link.Peer { return f.Chain.B }

// Run drains the event queue.
func (f *Fabric) Run() { f.Eng.Run() }

// keystream walks the integrity keystream of the tag in p's first eight
// bytes over the rest of p, one xorshift step per eight bytes: with fill it
// writes the stream, otherwise it reports whether p carries it — so a
// corrupted payload that escapes the protocol is visible at the
// application (Fail_data), and checking one needs no second buffer. The
// stream stops short of the fabric routing bytes (source and destination
// tags), which the link layer may stamp in transit.
func keystream(p []byte, fill bool) bool {
	x := binary.BigEndian.Uint64(p)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	body := p[8:min(len(p), flit.SrcRouteOffset)]
	for len(body) > 0 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if len(body) < 8 {
			var tail [8]byte
			binary.LittleEndian.PutUint64(tail[:], x)
			if fill {
				copy(body, tail[:])
			}
			return bytes.Equal(body, tail[:len(body)])
		}
		if fill {
			binary.LittleEndian.PutUint64(body, x)
		} else if binary.LittleEndian.Uint64(body) != x {
			return false
		}
		body = body[8:]
	}
	return true
}

// seal writes tag and its keystream into p, in place.
func seal(tag uint64, p []byte) {
	binary.BigEndian.PutUint64(p, tag)
	keystream(p, true)
}

// SealedPayload returns a full flit payload carrying tag plus an integrity
// keystream covering the entire deliverable region, so the receiver can
// verify it regardless of zero-padding on the wire.
func SealedPayload(tag uint64) []byte {
	p := make([]byte, flit.PayloadSize)
	seal(tag, p)
	return p
}

// PayloadIntact reports whether a delivered payload matches its tag's
// keystream (ignoring the routing tag bytes at the payload tail).
func PayloadIntact(p []byte) bool { return keystream(p, false) }

// offer queues tags 0..counts[j]-1 at each transmitter txs[j], in
// transmitter order. No payload is sealed before it is sent, and on the
// fast path none is sealed unless a byte of it is read (a schedule
// strike, a fault hook, a consumer without a tag-only callback), so a
// backlog costs no memory until it reaches the replay window.
func offer(txs []*link.Peer, counts []int) {
	for j, tx := range txs {
		tx.Offer(counts[j], seal)
	}
}

// FailureCounts is the paper's protocol-failure taxonomy (Section 7.1)
// measured at the application boundary of endpoint B.
type FailureCounts struct {
	// Delivered counts payloads handed to the application.
	Delivered int
	// FailData counts deliveries whose payload bytes were corrupted
	// (Fail_data: corrupted data forwarded to the application layer).
	FailData int
	// FailOrder counts out-of-order deliveries (Fail_order: flits
	// forwarded in an incorrect order), including skips past dropped
	// flits.
	FailOrder int
	// Duplicates counts payloads delivered more than once — the Fig. 5a
	// transaction hazard.
	Duplicates int
	// Missing counts tags never delivered.
	Missing int
}

// Add folds another flow's (or run's) counts into fc.
func (fc *FailureCounts) Add(o FailureCounts) {
	fc.Delivered += o.Delivered
	fc.FailData += o.FailData
	fc.FailOrder += o.FailOrder
	fc.Duplicates += o.Duplicates
	fc.Missing += o.Missing
}

// Clean reports whether delivery was exactly-once, in-order, and intact.
func (fc FailureCounts) Clean() bool {
	return fc.FailData == 0 && fc.FailOrder == 0 && fc.Duplicates == 0 && fc.Missing == 0
}

// Collector is the Section 7.1 accountant of one flow: it checks every
// delivered payload against the tag sequence 0,1,2,… (exactly once, in
// order) and against its keystream.
type Collector struct {
	Counts FailureCounts
	Expect int // total tags expected (set by the experiment)

	// next is the tag an in-order delivery carries: one past the highest
	// delivered so far. Every tag below seen has been delivered; beyond
	// holds the delivered tags at or above it, so an in-order run never
	// touches the map.
	next, seen uint64
	beyond     map[uint64]bool
}

// NewCollector returns a collector expecting `expect` tags.
func NewCollector(expect int) *Collector {
	return &Collector{Expect: expect}
}

// Deliver is the endpoint delivery callback: the payload's tag is
// accounted for as DeliverClean does it, and its keystream is checked
// byte by byte.
func (c *Collector) Deliver(p []byte) {
	c.DeliverClean(binary.BigEndian.Uint64(p))
	if !PayloadIntact(p) {
		c.Counts.FailData++
	}
}

// DeliverClean is the delivery callback for a payload whose flit arrived
// clean, its bytes still deferred (link.Peer.DeliverClean): the same
// order and duplicate accounting as Deliver, with the payload intact by
// the clean mark rather than by a byte read.
func (c *Collector) DeliverClean(tag uint64) {
	c.Counts.Delivered++
	switch {
	case tag == c.seen:
		c.seen++
		for len(c.beyond) > 0 && c.beyond[c.seen] {
			delete(c.beyond, c.seen)
			c.seen++
		}
	case tag < c.seen || c.beyond[tag]:
		c.Counts.Duplicates++
	default:
		if c.beyond == nil {
			c.beyond = make(map[uint64]bool)
		}
		c.beyond[tag] = true
	}
	switch {
	case tag == c.next:
		c.next++
	case tag > c.next:
		// A skip past dropped tags: resume at the new high-water mark.
		c.Counts.FailOrder++
		c.next = tag + 1
	default:
		c.Counts.FailOrder++
	}
}

// Finish computes Missing and returns the final counts.
func (c *Collector) Finish() FailureCounts {
	unique := c.Counts.Delivered - c.Counts.Duplicates
	if c.Expect > unique {
		c.Counts.Missing = c.Expect - unique
	}
	return c.Counts
}
