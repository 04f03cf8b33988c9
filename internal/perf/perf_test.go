package perf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func TestDefaultParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadInputs(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.FlitTime = 0 },
		func(p *Params) { p.RetryLatency = -1 },
		func(p *Params) { p.FERUC = 2 },
		func(p *Params) { p.PCoalescing = -0.5 },
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid params", i)
		}
	}
}

// TestEq11Direct checks BW loss ≈ 0.15% for the direct connection.
func TestEq11Direct(t *testing.T) {
	loss := DefaultParams().BWLossDirect()
	if !within(loss, 0.0015, 0.05) {
		t.Fatalf("BW loss direct = %g, want ≈0.0015", loss)
	}
}

// TestEq12Switched checks BW loss ≈ 0.30% with one switch.
func TestEq12Switched(t *testing.T) {
	loss := DefaultParams().BWLossSwitched(1)
	if !within(loss, 0.0030, 0.05) {
		t.Fatalf("BW loss switched = %g, want ≈0.0030", loss)
	}
}

// TestEq13NoPiggyback checks BW loss = p_coalescing exactly.
func TestEq13NoPiggyback(t *testing.T) {
	p := DefaultParams()
	if loss := p.BWLossNoPiggyback(); loss != p.PCoalescing {
		t.Fatalf("BW loss no-piggyback = %g, want %g", loss, p.PCoalescing)
	}
	p.PCoalescing = 1
	if loss := p.BWLossNoPiggyback(); loss != 1 {
		t.Fatalf("without coalescing loss = %g, want 1 (100%%)", loss)
	}
}

// TestEq14RXL checks RXL's loss matches the Eq. 12 value — same cost,
// stronger guarantee.
func TestEq14RXL(t *testing.T) {
	p := DefaultParams()
	if p.BWLossRXL(1) != p.BWLossSwitched(1) {
		t.Fatal("Eq. 14 must equal Eq. 12")
	}
}

func TestTableShape(t *testing.T) {
	rows := DefaultParams().Table()
	if len(rows) != 4 {
		t.Fatalf("table has %d rows, want 4", len(rows))
	}
	// The no-piggyback option costs ~33x more bandwidth than RXL at
	// p_coalescing = 0.1 — the paper's argument for ISN.
	var noPB, rxl float64
	for _, r := range rows {
		switch r.Scheme {
		case "CXL switched (no piggyback)":
			noPB = r.BWLoss
		case "RXL switched":
			rxl = r.BWLoss
		}
	}
	if noPB/rxl < 30 {
		t.Errorf("no-piggyback/RXL loss ratio = %g, want > 30", noPB/rxl)
	}
	// Only the piggybacking CXL row gives up ordering detection.
	for _, r := range rows {
		wantOrdered := r.Scheme != "CXL switched (piggyback)"
		if r.Ordered != wantOrdered {
			t.Errorf("%s: Ordered = %v, want %v", r.Scheme, r.Ordered, wantOrdered)
		}
	}
}

func TestCoalescingSweep(t *testing.T) {
	ps := []float64{0.02, 0.1, 0.5, 1}
	rows := CoalescingSweep(ps)
	for i, r := range rows {
		if r.BWLoss != ps[i] {
			t.Errorf("row %d: BWLoss %g, want %g", i, r.BWLoss, ps[i])
		}
	}
}

func TestCoalescingSweepPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	CoalescingSweep([]float64{1.5})
}

func TestBWLossMonotoneInLevels(t *testing.T) {
	p := DefaultParams()
	prev := -1.0
	for l := 0; l <= 16; l++ {
		loss := p.BWLossSwitched(l)
		if loss <= prev {
			t.Fatalf("BW loss not increasing at level %d", l)
		}
		prev = loss
	}
}

func TestBWLossNegativeLevelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DefaultParams().BWLossSwitched(-1)
}

// TestLossAtRetryRateProperties: loss is 0 at rate 0, increasing, and
// below 1 for any rate < 1.
func TestLossAtRetryRateProperties(t *testing.T) {
	p := DefaultParams()
	if got := p.lossAtRetryRate(0); got != 0 {
		t.Fatalf("loss at rate 0 = %g", got)
	}
	f := func(a, b uint16) bool {
		r1 := float64(a) / (math.MaxUint16 + 1)
		r2 := float64(b) / (math.MaxUint16 + 1)
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		l1, l2 := p.lossAtRetryRate(r1), p.lossAtRetryRate(r2)
		return l1 >= 0 && l2 < 1 && l1 <= l2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveBandwidth(t *testing.T) {
	p := DefaultParams()
	// 2 ns flits, 240B payload, perfect goodput: 120 GB/s.
	bw := p.EffectiveBandwidth(1.0, 240)
	if !within(bw, 120e9, 1e-9) {
		t.Fatalf("effective bandwidth = %g, want 120e9", bw)
	}
	if half := p.EffectiveBandwidth(0.5, 240); !within(half, 60e9, 1e-9) {
		t.Fatalf("half goodput bandwidth = %g, want 60e9", half)
	}
}

func TestEffectiveBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DefaultParams().EffectiveBandwidth(1.5, 240)
}

// TestMeasureGoodputFromStats exercises the stats → goodput conversion on
// synthetic counters.
func TestMeasureGoodputFromStats(t *testing.T) {
	st := link.Stats{
		FlitsSent:       1100,
		DataFlitsSent:   1000,
		Retransmissions: 60,
		AckFlitsSent:    30,
		NakFlitsSent:    10,
	}
	m := MeasureGoodput(st)
	if !within(m.BWLoss, 1-1000.0/1100.0, 1e-12) {
		t.Fatalf("BWLoss = %g", m.BWLoss)
	}
	if !within(m.AckOverhead, 0.03, 1e-12) {
		t.Fatalf("AckOverhead = %g", m.AckOverhead)
	}
	if !within(m.RetryOverhead, 0.06, 1e-12) {
		t.Fatalf("RetryOverhead = %g", m.RetryOverhead)
	}
}

func TestMeasureGoodputZeroStats(t *testing.T) {
	m := MeasureGoodput(link.Stats{})
	if m.BWLoss != 0 || m.AckOverhead != 0 || m.RetryOverhead != 0 {
		t.Fatal("zero stats must give zero overheads")
	}
}

// TestMeasuredAckOverheadMatchesEq13 runs a live no-piggyback simulation
// and checks the standalone-ACK overhead lands at p_coalescing — the
// simulation-side validation of Eq. 13.
func TestMeasuredAckOverheadMatchesEq13(t *testing.T) {
	for _, coalesce := range []int{1, 2, 10} {
		eng := sim.NewEngine()
		cfg := link.DefaultConfig(link.ProtocolCXLNoPiggyback)
		cfg.CoalesceCount = coalesce
		a := link.NewPeer("A", eng, cfg)
		b := link.NewPeer("B", eng, cfg)
		a.Attach(link.NewWire(eng, sim.FlitTime, 10*sim.Nanosecond, b.Receive))
		b.Attach(link.NewWire(eng, sim.FlitTime, 10*sim.Nanosecond, a.Receive))

		const n = 2000
		payload := make([]byte, 16)
		for i := 0; i < n; i++ {
			a.Submit(payload)
		}
		eng.Run()

		m := MeasureGoodput(b.Stats) // B transmits the ACKs
		want := 1.0 / float64(coalesce)
		got := float64(b.Stats.AckFlitsSent) / float64(n)
		if !within(got, want, 0.05) {
			t.Errorf("coalesce=%d: ACK/data = %g, want ≈%g", coalesce, got, want)
		}
		_ = m
	}
}

// TestMeasuredRetryOverheadTracksEq12 pushes traffic through a one-switch
// chain with a lossy first hop and checks the measured retransmission
// overhead scales with the drop rate, cross-checking the Eq. 12 occupancy
// model's input.
func TestMeasuredRetryOverheadTracksEq12(t *testing.T) {
	eng := sim.NewEngine()
	cfg := switchfab.DefaultChainConfig(link.ProtocolRXL, 1)
	c := switchfab.NewChain(eng, cfg)
	rng := phy.NewRNG(12345)
	for _, w := range append(append([]*link.Wire{}, c.Fwd...), c.Bwd...) {
		w.PathSched, w.PathHops = phy.NewSharedSchedule(2e-5, 0.4, rng.Split(), flit.Bits), 1
	}
	delivered := 0
	c.B.Deliver = func([]byte) { delivered++ }
	const n = 5000
	payload := make([]byte, 16)
	for i := 0; i < n; i++ {
		c.A.Submit(payload)
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	m := MeasureGoodput(c.A.Stats)
	if c.A.Stats.Retransmissions == 0 {
		t.Skip("no retries at this seed; cannot cross-check")
	}
	// Go-back-N amplifies each error into a window of replays, so the
	// overhead must be at least the raw error rate and well below 50%.
	if m.RetryOverhead <= 0 || m.RetryOverhead > 0.5 {
		t.Fatalf("retry overhead %g implausible", m.RetryOverhead)
	}
}
