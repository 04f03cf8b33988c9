package core

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Fault-campaign kinds.
const (
	FaultNone    = "none"
	FaultDegrade = "degrade"
	FaultStorm   = "storm"
	FaultFlap    = "flap"
)

// FaultScript is a deterministic scripted fault campaign applied to a
// mesh fabric: a seed-derived schedule of engine events that mutate the
// error model or drop traffic mid-run. Scripts are part of the scenario
// cell, so the differential suite proves the fast and byte-level paths
// react to faults bit-identically: every mutation fires as a simulation
// event, at the same instant of the same deterministic schedule in both
// runs.
//
// Kinds:
//
//   - "none": no fault (the default; the zero value normalizes to it).
//   - "degrade": at StartNS, every path channel's BER is permanently
//     multiplied by Factor — a lane losing equalization margin.
//   - "storm": BER is multiplied by Factor for [StartNS, StartNS+DurationNS),
//     then restored — a transient interference burst.
//   - "flap": a seed-chosen wire silently drops all flits for Flaps
//     windows of DurationNS every PeriodNS starting at StartNS — a link
//     going down and up while retry recovers across it.
//
// BER-scaling kinds are inert on clean (BER 0) fabrics; flap bites
// regardless of BER.
type FaultScript struct {
	Kind string `json:"kind,omitempty"`
	// StartNS is when the campaign begins (default 200).
	StartNS int64 `json:"startNS,omitempty"`
	// DurationNS is the storm length or per-flap outage window
	// (defaults 300 storm, 120 flap).
	DurationNS int64 `json:"durationNS,omitempty"`
	// Factor is the BER multiplier of degrade/storm (defaults 100
	// degrade, 1000 storm).
	Factor float64 `json:"factor,omitempty"`
	// Flaps is the number of outage windows (default 3).
	Flaps int `json:"flaps,omitempty"`
	// PeriodNS is the flap repetition period (default 500).
	PeriodNS int64 `json:"periodNS,omitempty"`
}

// Name identifies the campaign in reports and differential-case names.
func (s FaultScript) Name() string {
	switch s.Kind {
	case FaultDegrade:
		return fmt.Sprintf("degrade(x%g@%dns)", s.Factor, s.StartNS)
	case FaultStorm:
		return fmt.Sprintf("storm(x%g@%d+%dns)", s.Factor, s.StartNS, s.DurationNS)
	case FaultFlap:
		return fmt.Sprintf("flap(%dx%dns/%dns)", s.Flaps, s.DurationNS, s.PeriodNS)
	case FaultNone, "":
		return FaultNone
	default:
		return s.Kind
	}
}

// Normalized validates the script and fills kind-appropriate defaults,
// returning the canonical form used for cache keying.
func (s FaultScript) Normalized() (FaultScript, error) {
	switch s.Kind {
	case "", FaultNone:
		if s != (FaultScript{}) && s != (FaultScript{Kind: FaultNone}) {
			return s, fmt.Errorf("core: fault %q takes no parameters", FaultNone)
		}
		return FaultScript{Kind: FaultNone}, nil
	case FaultDegrade:
		if s.DurationNS != 0 || s.Flaps != 0 || s.PeriodNS != 0 {
			return s, fmt.Errorf("core: degrade takes only startNS/factor")
		}
		if s.Factor == 0 {
			s.Factor = 100
		}
	case FaultStorm:
		if s.Flaps != 0 || s.PeriodNS != 0 {
			return s, fmt.Errorf("core: storm takes only startNS/durationNS/factor")
		}
		if s.DurationNS == 0 {
			s.DurationNS = 300
		}
		if s.Factor == 0 {
			s.Factor = 1000
		}
	case FaultFlap:
		if s.Factor != 0 {
			return s, fmt.Errorf("core: flap has no BER factor")
		}
		if s.DurationNS == 0 {
			s.DurationNS = 120
		}
		if s.Flaps == 0 {
			s.Flaps = 3
		}
		if s.PeriodNS == 0 {
			s.PeriodNS = 500
		}
		if s.DurationNS >= s.PeriodNS {
			return s, fmt.Errorf("core: flap outage %dns must be shorter than its period %dns", s.DurationNS, s.PeriodNS)
		}
	default:
		return s, fmt.Errorf("core: unknown fault kind %q", s.Kind)
	}
	if s.StartNS == 0 {
		s.StartNS = 200
	}
	if s.StartNS < 0 || s.DurationNS < 0 || s.Factor < 0 || s.Flaps < 0 || s.PeriodNS < 0 {
		return s, fmt.Errorf("core: negative fault parameter in %+v", s)
	}
	return s, nil
}

// ApplyFault schedules the campaign's events on the fabric's engine. It
// must be called before the run starts; index salts the seed derivation
// so multiple campaigns on one fabric pick independent fault sites. The
// event schedule depends only on (script, cfg.Seed, index, fabric
// geometry) — never on traffic — so fast and byte-level runs replay it
// identically.
func (m *MeshFabric) ApplyFault(script FaultScript, index int) error {
	s, err := script.Normalized()
	if err != nil {
		return err
	}
	start := sim.Time(s.StartNS) * sim.Nanosecond
	switch s.Kind {
	case FaultNone:
	case FaultDegrade:
		m.Eng.At(start, func() { m.Mesh.SetPathBERScale(s.Factor) })
	case FaultStorm:
		m.Eng.At(start, func() { m.Mesh.SetPathBERScale(s.Factor) })
		m.Eng.At(start+sim.Time(s.DurationNS)*sim.Nanosecond, func() { m.Mesh.SetPathBERScale(1) })
	case FaultFlap:
		// The flapping wire is seed-derived from the fabric's deterministic
		// wire list: same (seed, index, geometry) → same wire, every run.
		wires := m.Mesh.Wires()
		rng := phy.NewRNG(m.Cfg.Seed ^ (0x9E3779B97F4A7C15 * uint64(index+1)))
		w := wires[rng.Intn(len(wires))]
		// The hook is installed for the whole run and the outage events
		// only toggle what it returns: express never claims a hooked
		// wire, so every traversal crossing it takes the hop-by-hop path —
		// deterministically and traffic-independently, so fast and
		// byte-level runs fall back on exactly the same traversals.
		var down bool
		w.FaultHook = func(*flit.Flit) bool { return down }
		for k := 0; k < s.Flaps; k++ {
			at := start + sim.Time(int64(k)*s.PeriodNS)*sim.Nanosecond
			m.Eng.At(at, func() { down = true })
			m.Eng.At(at+sim.Time(s.DurationNS)*sim.Nanosecond, func() { down = false })
		}
	}
	return nil
}
