package core

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Protocol: link.ProtocolRXL, Levels: 2, BER: 1e-6, BurstProb: 0.4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Levels: -1},
		{BER: -1},
		{BER: 2},
		{BurstProb: 1},
		{InternalFlipProb: -0.1},
		// A negative timing override would change nothing a fabric
		// builds, only the cache key and the echoed Cfg.
		{Serialization: -5},
		{Propagation: -7},
		{SwitchLatency: -1},
		{Protocol: 7},
		// The link layer would panic on this at NewPeer; Validate must
		// see it first.
		{Protocol: link.ProtocolRXL, LinkConfig: &link.Config{ReplayBufferSize: 600}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted %+v", i, c)
		}
	}
}

// TestLinkConfigFollowsFabricProtocol: Config.Protocol decides the
// protocol of both peers and the switch mode even when LinkConfig carries
// another one (its zero value is CXL), on chain and mesh fabrics alike, so
// a protocol axis over a base with LinkConfig set runs what it labels.
func TestLinkConfigFollowsFabricProtocol(t *testing.T) {
	cxlDefault := link.DefaultConfig(link.ProtocolCXL)
	cxlDefault.CoalesceCount = 4
	cfg := Config{Protocol: link.ProtocolRXL, Levels: 2, LinkConfig: &cxlDefault, NoFastPath: true}

	f := MustNewFabric(cfg)
	for _, p := range []*link.Peer{f.A(), f.B()} {
		if p.Cfg.Protocol != link.ProtocolRXL || p.Cfg.CoalesceCount != 4 || p.Cfg.FastPath {
			t.Errorf("chain peer %s resolved %+v", p.Name, p.Cfg)
		}
	}
	for _, sw := range f.Chain.Switches {
		if sw.Mode != switchfab.ModeRXL {
			t.Errorf("chain switch %s runs %v", sw.Name, sw.Mode)
		}
	}

	m := MustNewMeshFabric(cfg, 2, 2)
	if p := m.Node(0, 0).PeerTo(m.Node(1, 1).ID); p.Cfg.Protocol != link.ProtocolRXL || p.Cfg.CoalesceCount != 4 || p.Cfg.FastPath {
		t.Errorf("mesh peer resolved %+v", p.Cfg)
	}
	if got := m.Mesh.Routers[m.Mesh.NodeID(0, 0)].Mode; got != switchfab.ModeRXL {
		t.Errorf("mesh router runs %v", got)
	}
	if cxlDefault.Protocol != link.ProtocolCXL {
		t.Error("resolving mutated the caller's LinkConfig")
	}
}

// TestNoFastPathAloneDecidesThePath: a LinkConfig override names link
// choices, never the path — its zero FastPath must not switch a fabric
// onto the byte-level reference. NoFastPath alone decides, on chain and
// mesh peers alike.
func TestNoFastPathAloneDecidesThePath(t *testing.T) {
	for _, noFast := range []bool{false, true} {
		cfg := Config{Protocol: link.ProtocolRXL, Levels: 1, LinkConfig: &link.Config{CoalesceCount: 5}, NoFastPath: noFast}
		f := MustNewFabric(cfg)
		m := MustNewMeshFabric(cfg, 2, 2)
		for _, p := range []*link.Peer{f.A(), f.B(), m.Node(0, 0).PeerTo(m.Node(1, 1).ID)} {
			if p.Cfg.FastPath == noFast || p.Cfg.CoalesceCount != 5 {
				t.Errorf("NoFastPath=%v: peer %s resolved %+v", noFast, p.Name, p.Cfg)
			}
		}
	}
}

func TestNewFabricRejectsInvalid(t *testing.T) {
	if _, err := NewFabric(Config{Levels: -3}); err == nil {
		t.Fatal("no error")
	}
}

func TestMustNewFabricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNewFabric(Config{Levels: -3})
}

func TestSealedPayloadRoundTrip(t *testing.T) {
	f := func(tag uint64) bool {
		p := SealedPayload(tag)
		return binary.BigEndian.Uint64(p) == tag && PayloadIntact(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadIntactDetectsCorruption(t *testing.T) {
	p := SealedPayload(42)
	p[20] ^= 0x01
	if PayloadIntact(p) {
		t.Fatal("corruption not detected")
	}
}

func TestCollectorCleanRun(t *testing.T) {
	c := NewCollector(5)
	for i := uint64(0); i < 5; i++ {
		c.Deliver(SealedPayload(i))
	}
	fc := c.Finish()
	if !fc.Clean() || fc.Delivered != 5 {
		t.Fatalf("counts: %+v", fc)
	}
}

func TestCollectorCountsFailures(t *testing.T) {
	c := NewCollector(4)
	c.Deliver(SealedPayload(0))
	c.Deliver(SealedPayload(2)) // skip: out of order
	c.Deliver(SealedPayload(2)) // duplicate
	bad := SealedPayload(3)
	bad[16] ^= 0xFF
	c.Deliver(bad) // corrupt
	fc := c.Finish()
	if fc.FailOrder == 0 || fc.Duplicates != 1 || fc.FailData != 1 {
		t.Fatalf("counts: %+v", fc)
	}
	if fc.Missing != 1 { // tag 1 never arrived
		t.Fatalf("missing = %d, want 1", fc.Missing)
	}
	if fc.Clean() {
		t.Fatal("Clean() on dirty counts")
	}
}

// TestCollector is the accountant's contract: what each delivery pattern
// costs in Section 7.1 counts, and what it leaves in the watermark and the
// beyond-watermark map.
func TestCollector(t *testing.T) {
	type delivery struct {
		tag     uint64
		flipTag bool // corrupt the tag's top bit in flight: tag becomes tag + 2^63
	}
	seq := func(tags ...uint64) []delivery {
		ds := make([]delivery, len(tags))
		for i, tag := range tags {
			ds[i].tag = tag
		}
		return ds
	}
	cases := []struct {
		name   string
		expect int
		in     []delivery
		want   FailureCounts
		seen   uint64 // every tag below it was delivered
		beyond int    // map entries left
	}{
		{"in-order run", 10, seq(0, 1, 2, 3, 4, 5, 6, 7, 8, 9),
			FailureCounts{Delivered: 10}, 10, 0},
		{"duplicate", 1, seq(0, 0),
			FailureCounts{Delivered: 2, Duplicates: 1, FailOrder: 1}, 1, 0},
		{"gap then continue", 4, seq(0, 2, 3),
			FailureCounts{Delivered: 3, FailOrder: 1, Missing: 1}, 1, 2},
		{"late arrival of a skipped tag", 4, seq(0, 2, 1, 3),
			FailureCounts{Delivered: 4, FailOrder: 2}, 4, 0},
		{"reorder from the start", 2, seq(1, 0),
			FailureCounts{Delivered: 2, FailOrder: 2}, 2, 0},
		{"gap that never fills", 7, seq(0, 1, 5, 6),
			FailureCounts{Delivered: 4, FailOrder: 1, Missing: 3}, 2, 2},
		// One corrupted tag far above the run: a single map entry, one
		// Fail_order and one Fail_data for the delivery itself; later
		// duplicates are still told from first arrivals (every later tag
		// is below the high-water mark, hence out of order).
		{"corrupted huge tag", 3, []delivery{{tag: 0}, {tag: 0, flipTag: true}, {tag: 1}, {tag: 1}, {tag: 2}},
			FailureCounts{Delivered: 5, FailOrder: 4, FailData: 1, Duplicates: 1}, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollector(tc.expect)
			for _, d := range tc.in {
				p := SealedPayload(d.tag)
				if d.flipTag {
					p[0] ^= 0x80
				}
				c.Deliver(p)
			}
			if got := c.Finish(); got != tc.want {
				t.Errorf("counts = %+v, want %+v", got, tc.want)
			}
			if c.seen != tc.seen || len(c.beyond) != tc.beyond {
				t.Errorf("watermark %d with %d tags beyond it, want %d and %d", c.seen, len(c.beyond), tc.seen, tc.beyond)
			}
			if tc.want.Clean() && c.beyond != nil {
				t.Error("a clean run touched the beyond-watermark map")
			}
		})
	}
}

// TestExperimentCleanChannels: every protocol delivers exactly-once
// in-order over error-free fabrics at every switching depth.
func TestExperimentCleanChannels(t *testing.T) {
	for _, proto := range []link.Protocol{link.ProtocolCXL, link.ProtocolCXLNoPiggyback, link.ProtocolRXL} {
		for _, levels := range []int{0, 1, 3} {
			exp := Experiment{
				Fabric: MustNewFabric(Config{Protocol: proto, Levels: levels}),
				N:      500,
			}
			res := exp.Run()
			if !res.Failures.Clean() {
				t.Errorf("%v L%d: %+v", proto, levels, res.Failures)
			}
			if res.Failures.Delivered != 500 {
				t.Errorf("%v L%d: delivered %d", proto, levels, res.Failures.Delivered)
			}
			if res.Elapsed == 0 {
				t.Errorf("%v L%d: no simulated time elapsed", proto, levels)
			}
		}
	}
}

// TestExperimentRXLUnderBER: RXL survives a noisy two-switch fabric with
// exactly-once in-order delivery.
func TestExperimentRXLUnderBER(t *testing.T) {
	exp := Experiment{
		Fabric: MustNewFabric(Config{
			Protocol: link.ProtocolRXL, Levels: 2,
			BER: 1e-5, BurstProb: 0.4, Seed: 1234,
		}),
		N: 4000,
	}
	res := exp.Run()
	if !res.Failures.Clean() {
		t.Fatalf("RXL failed under BER: %+v\n%s", res.Failures, res)
	}
	if res.LinkA.Retransmissions == 0 && res.Switches.DroppedUncorrectable == 0 &&
		res.LinkB.FecCorrectedFlits == 0 {
		t.Log("note: channel injected no observable errors at this seed")
	}
}

// TestExperimentCXLNoPiggybackUnderBER: explicit sequence numbers also
// deliver exactly-once (at the ACK bandwidth cost).
func TestExperimentCXLNoPiggybackUnderBER(t *testing.T) {
	exp := Experiment{
		Fabric: MustNewFabric(Config{
			Protocol: link.ProtocolCXLNoPiggyback, Levels: 1,
			BER: 1e-5, BurstProb: 0.4, Seed: 99,
		}),
		N: 4000,
	}
	res := exp.Run()
	if !res.Failures.Clean() {
		t.Fatalf("no-piggyback CXL failed: %+v", res.Failures)
	}
}

// TestExperimentCXLOrderingFailuresUnderDrops: with scripted drops at the
// switch, bidirectional traffic (so forward flits piggyback ACKs for the
// reverse stream), and maximal acking, baseline CXL exhibits ordering
// failures while RXL does not — the Section 7.1 comparison, simulated.
func TestExperimentCXLOrderingFailuresUnderDrops(t *testing.T) {
	run := func(proto link.Protocol) FailureCounts {
		cfg := link.DefaultConfig(proto)
		cfg.CoalesceCount = 1 // every delivery acks: maximal piggybacking
		f := MustNewFabric(Config{Protocol: proto, Levels: 1, LinkConfig: &cfg})

		const n = 200
		col := NewCollector(n)
		f.B().Deliver = col.Deliver

		// Drop every 20th forward data flit at the switch ingress.
		drops := 0
		f.Chain.Fwd[0].FaultHook = func(fl *flit.Flit) bool {
			if fl.Header().Type == flit.TypeData {
				drops++
				return drops%20 == 10
			}
			return false
		}

		// Interleaved bidirectional traffic: the reverse stream keeps
		// acknowledgments pending at A, so forward data flits routinely
		// carry AckNums — the piggyback blind spot under test.
		for i := 0; i < n; i++ {
			tag := uint64(i)
			f.Eng.Schedule(sim.Time(i)*50*sim.Nanosecond, func() {
				f.A().Submit(SealedPayload(tag))
			})
			f.Eng.Schedule(sim.Time(i)*50*sim.Nanosecond+25*sim.Nanosecond, func() {
				f.B().Submit(SealedPayload(1000 + tag))
			})
		}
		f.Run()
		return col.Finish()
	}

	cxl := run(link.ProtocolCXL)
	rxl := run(link.ProtocolRXL)
	if cxl.FailOrder == 0 && cxl.Duplicates == 0 && cxl.Missing == 0 {
		t.Errorf("CXL with piggybacking showed no delivery hazard: %+v", cxl)
	}
	if !rxl.Clean() {
		t.Errorf("RXL not clean under the same drops: %+v", rxl)
	}
}

func TestRunComparisonCovailsAllProtocols(t *testing.T) {
	res := RunComparison(Config{Levels: 1, Seed: 5}, 200)
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	for proto, r := range res {
		if r.Failures.Delivered == 0 {
			t.Errorf("%v delivered nothing", proto)
		}
	}
}

func TestResultString(t *testing.T) {
	exp := Experiment{Fabric: MustNewFabric(Config{Protocol: link.ProtocolRXL}), N: 10}
	if exp.Run().String() == "" {
		t.Fatal("empty result string")
	}
}

func TestExperimentPanicsOnZeroN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Experiment{Fabric: MustNewFabric(Config{})}).Run()
}

func TestFabricDeterminism(t *testing.T) {
	run := func() Result {
		exp := Experiment{
			Fabric: MustNewFabric(Config{Protocol: link.ProtocolRXL, Levels: 1, BER: 2e-5, Seed: 77}),
			N:      1500,
		}
		return exp.Run()
	}
	a, b := run(), run()
	if a.LinkA != b.LinkA || a.Failures != b.Failures || a.Elapsed != b.Elapsed {
		t.Fatal("equal seeds gave different runs")
	}
}
