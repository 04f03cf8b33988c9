package switchfab

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Chain is the paper's multi-level switching topology (Section 7.1.4): two
// endpoints connected through L switches in series, giving L+1 links per
// direction. Level 0 is a direct connection.
//
//	A ═w0═ S1 ═w1═ S2 ═ ... ═ SL ═wL═ B
//
// Each direction is one path with one error-event schedule, consumed the
// way the mesh consumes its paths: a crossing sits in front of every
// hop's receiver (the next switch's pipeline, or the endpoint), behind
// the wire's fault hook. The first wire opens a traversal of all levels+1
// crossings, so a clean window grants the flit a pass over the rest. All
// wires are exposed so experiments can attach fault hooks per hop.
type Chain struct {
	A, B *link.Peer
	// Fwd[i] is the i-th wire on the A->B path; Bwd[i] the i-th on B->A
	// (Bwd[0] leaves B). len == levels+1.
	Fwd, Bwd []*link.Wire
	// Switches holds the L switching elements, shared by both directions.
	Switches []*Switch
}

// ChainConfig parameterizes chain construction.
type ChainConfig struct {
	Levels        int // number of switches (0 = direct connection)
	LinkCfg       link.Config
	Serialization sim.Time // per-flit serialization delay per hop
	Propagation   sim.Time // per-hop propagation delay
	SwitchLatency sim.Time // per-switch processing delay
}

// DefaultChainConfig gives the paper's timing: 2ns flits and a per-hop
// budget sized so the go-back-N round trip lands near the 100ns retry
// latency assumed in Section 7.2.
func DefaultChainConfig(proto link.Protocol, levels int) ChainConfig {
	return ChainConfig{
		Levels:        levels,
		LinkCfg:       link.DefaultConfig(proto),
		Serialization: sim.FlitTime,
		Propagation:   10 * sim.Nanosecond,
		SwitchLatency: 5 * sim.Nanosecond,
	}
}

// ModeFor maps the link protocol to the switch stack variant: RXL
// switches pass the CRC through; everything else terminates it per hop.
func ModeFor(p link.Protocol) Mode {
	if p == link.ProtocolRXL {
		return ModeRXL
	}
	return ModeCXL
}

// NewChain builds the topology and returns it with endpoints attached and
// ready for traffic. fwd and bwd are the error-event schedules of the A→B
// and B→A paths, one unit per wire crossing; nil means a clean direction.
func NewChain(eng *sim.Engine, cfg ChainConfig, fwd, bwd *phy.SharedSchedule) *Chain {
	if cfg.Levels < 0 {
		panic("switchfab: negative switch levels")
	}
	c := &Chain{}
	c.A = link.NewPeer("A", eng, cfg.LinkCfg)
	c.B = link.NewPeer("B", eng, cfg.LinkCfg)
	mode := ModeFor(cfg.LinkCfg.Protocol)

	for i := 0; i < cfg.Levels; i++ {
		c.Switches = append(c.Switches,
			NewSwitch(fmt.Sprintf("S%d", i+1), eng, mode, cfg.SwitchLatency))
	}

	// Build each direction from the far end backwards so every wire knows
	// its deliver target at construction.
	c.Fwd = c.buildPath(eng, cfg, c.B, false, fwd)
	c.Bwd = c.buildPath(eng, cfg, c.A, true, bwd)
	c.A.Attach(c.Fwd[0])
	c.B.Attach(c.Bwd[0])
	return c
}

// buildPath creates the levels+1 wires of one direction. For the backward
// direction the switch order is reversed (flits from B hit SL first).
func (c *Chain) buildPath(eng *sim.Engine, cfg ChainConfig, dst *link.Peer, reverse bool, s *phy.SharedSchedule) []*link.Wire {
	n := cfg.Levels + 1
	wires := make([]*link.Wire, n)
	// Wire n-1 delivers to the destination endpoint.
	deliver := dst.Receive
	for i := n - 1; i >= 0; i-- {
		wires[i] = link.NewWire(eng, cfg.Serialization, cfg.Propagation, c.crossing(s, i, n, deliver))
		if i > 0 {
			sw := c.Switches[i-1]
			if reverse {
				sw = c.Switches[len(c.Switches)-i]
			}
			deliver = sw.Pipeline(wires[i])
		}
	}
	return wires
}

// crossing puts wire i's crossing of the path schedule s in front of the
// wire's receiver recv: wire 0 opens the flit's traversal of all hops
// crossings, and every later wire spends the flit's path pass or consumes
// one unit of s.
func (c *Chain) crossing(s *phy.SharedSchedule, i, hops int, recv func(*flit.Flit)) func(*flit.Flit) {
	if s == nil {
		return recv
	}
	if i == 0 {
		return func(f *flit.Flit) {
			beginTraversal(s, f, hops)
			recv(f)
		}
	}
	return func(f *flit.Flit) {
		if !f.TakePathPass() {
			crossUnit(s, f)
		}
		recv(f)
	}
}

// TotalSwitchStats sums the stats across all switches.
func (c *Chain) TotalSwitchStats() Stats {
	var t Stats
	for _, s := range c.Switches {
		t.add(s.Stats)
	}
	return t
}
