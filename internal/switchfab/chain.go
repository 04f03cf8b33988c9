package switchfab

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/sim"
)

// Chain is the paper's multi-level switching topology (Section 7.1.4): two
// endpoints connected through L switches in series, giving L+1 links per
// direction. Level 0 is a direct connection.
//
//	A ═w0═ S1 ═w1═ S2 ═ ... ═ SL ═wL═ B
//
// All wires are exposed so experiments can attach error channels and fault
// hooks per hop.
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
// ready for traffic.
func NewChain(eng *sim.Engine, cfg ChainConfig) *Chain {
	if cfg.Levels < 0 {
		panic("switchfab: negative switch levels")
	}
	c := &Chain{}
	c.A = link.NewPeer("A", eng, cfg.LinkCfg)
	c.B = link.NewPeer("B", eng, cfg.LinkCfg)
	mode := ModeFor(cfg.LinkCfg.Protocol)

	for i := 0; i < cfg.Levels; i++ {
		c.Switches = append(c.Switches,
			NewSwitch(fmt.Sprintf("S%d", i+1), eng, mode, cfg.SwitchLatency, nil))
	}

	// Build each direction from the far end backwards so every wire knows
	// its deliver target at construction.
	c.Fwd = buildPath(eng, cfg, c.Switches, c.B, false)
	c.Bwd = buildPath(eng, cfg, c.Switches, c.A, true)
	c.A.Attach(c.Fwd[0])
	c.B.Attach(c.Bwd[0])
	return c
}

// buildPath creates the levels+1 wires of one direction. For the backward
// direction the switch order is reversed (flits from B hit SL first).
func buildPath(eng *sim.Engine, cfg ChainConfig, switches []*Switch, dst *link.Peer, reverse bool) []*link.Wire {
	n := cfg.Levels + 1
	wires := make([]*link.Wire, n)
	// Wire n-1 delivers to the destination endpoint.
	deliver := dst.Receive
	for i := n - 1; i >= 0; i-- {
		wires[i] = link.NewWire(eng, cfg.Serialization, cfg.Propagation, deliver)
		if i > 0 {
			sw := switches[i-1]
			if reverse {
				sw = switches[len(switches)-i]
			}
			deliver = sw.Pipeline(wires[i])
		}
	}
	return wires
}

// TotalSwitchStats sums the stats across all switches.
func (c *Chain) TotalSwitchStats() Stats {
	var t Stats
	for _, s := range c.Switches {
		t.add(s.Stats)
	}
	return t
}
