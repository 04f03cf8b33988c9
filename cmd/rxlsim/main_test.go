package main

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/workload"
)

func TestParseProto(t *testing.T) {
	cases := []struct {
		in   string
		want link.Protocol
		ok   bool
	}{
		{"cxl", link.ProtocolCXL, true},
		{"cxl-nopb", link.ProtocolCXLNoPiggyback, true},
		{"rxl", link.ProtocolRXL, true},
		{"tcp", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := parseProto(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseProto(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("parseProto(%q) accepted", c.in)
		}
	}
}

func TestCheckCounts(t *testing.T) {
	cases := []struct {
		n, reps int
		ok      bool
	}{
		{100000, 1, true},
		{1, 1, true},
		{20, 4, true},
		{0, 1, false},
		{-5, 1, false},
		{0, 4, false},
		{100, 0, false},
		{100, -3, false},
	}
	for _, c := range cases {
		if err := checkCounts(c.n, c.reps); (err == nil) != c.ok {
			t.Errorf("checkCounts(%d, %d) = %v, want ok=%v", c.n, c.reps, err, c.ok)
		}
	}
}

// TestRunScanTinyGrid drives the scan verb over a reduced grid: every
// cell must come back OK (the differential suite pins these operating
// points), the report must cover the full enumeration, and the output
// must be identical at any worker count.
func TestRunScanTinyGrid(t *testing.T) {
	g := core.ScenarioGrid{
		Base:      core.Config{BER: 1e-5, BurstProb: 0.4, Seed: 3},
		Protocols: []link.Protocol{link.ProtocolRXL},
		Topologies: []core.Topology{
			{Kind: core.TopoMesh, W: 2, H: 2},
			{Kind: core.TopoTorus, W: 3, H: 3},
		},
		Workloads: []workload.Spec{
			{Kind: workload.KindUniform, Flows: 3},
			{Kind: workload.KindTranspose},
		},
		Faults: []core.FaultScript{
			{Kind: core.FaultNone},
			{Kind: core.FaultFlap, StartNS: 150, DurationNS: 120, Flaps: 2, PeriodNS: 400},
		},
		N: 30,
	}
	var out strings.Builder
	regressions, err := runScan(context.Background(), runner.Pool{Workers: 2, BaseSeed: 3}, g, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("tiny scan grid regressed:\n%s", out.String())
	}
	// 1 protocol × 2 topologies × 2 workloads × 2 faults.
	if want := "scan: 8/8 cells OK, 0 regressions"; !strings.Contains(out.String(), want) {
		t.Fatalf("scan summary missing %q:\n%s", want, out.String())
	}

	var other strings.Builder
	if _, err := runScan(context.Background(), runner.Pool{Workers: 1, BaseSeed: 3}, g, &other); err != nil {
		t.Fatal(err)
	}
	if other.String() != out.String() {
		t.Fatal("scan report depends on worker count")
	}
}

// TestRunScanRejectsBadGrid: grid validation surfaces as an error, not a
// partial report.
func TestRunScanRejectsBadGrid(t *testing.T) {
	if _, err := runScan(context.Background(), runner.Pool{}, core.ScenarioGrid{N: 5}, &strings.Builder{}); err == nil {
		t.Fatal("axis-less grid scanned without error")
	}
	// A grid whose cells all fail to build (BER 2 is not a probability)
	// reports every cell as a regression rather than aborting the sweep.
	g := scanGrid(2, 0.4, 1, 10)
	var out strings.Builder
	regressions, err := runScan(context.Background(), runner.Pool{}, g, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions == 0 {
		t.Fatalf("invalid-BER grid scanned clean:\n%s", out.String())
	}
}

// TestModeConflict drives the mode table: each mode rejects the flags that
// select what it fixes or enumerates itself, names them in lexical order,
// and lets its own parameters through.
func TestModeConflict(t *testing.T) {
	cases := []struct {
		set  []string
		want string // "" for no conflict
	}{
		{nil, ""},
		{[]string{"proto", "reps", "n"}, ""},
		{[]string{"compare", "n", "ber", "levels", "csv", "seed"}, ""},
		{[]string{"compare", "reps", "proto"}, "-proto, -reps do(es) not apply with -compare"},
		{[]string{"compare", "reps"}, "-reps do(es) not apply with -compare"},
		{[]string{"scan", "ber", "burst", "seed", "scan-n", "workers"}, ""},
		{[]string{"scan", "n", "compare"}, "-compare, -n do(es) not apply with -scan"},
		{[]string{"scan", "rare"}, "-rare do(es) not apply with -scan"},
		{[]string{"rare", "ber", "proposal-ber", "rel-err", "seed", "workers"}, ""},
		{[]string{"rare", "scan-n", "burst"}, "-burst, -scan-n do(es) not apply with -rare"},
		{[]string{"rare", "compare", "proto"}, "-compare, -proto do(es) not apply with -rare"},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range c.set {
			set[name] = true
		}
		err := modeConflict(set)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: unexpected conflict %v", c.set, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: got %v, want %q", c.set, err, c.want)
		}
	}
	for _, m := range modes {
		if !slices.IsSorted(m.rejects) {
			t.Errorf("-%s rejects %v, not in flag.Visit's lexical order", m.name, m.rejects)
		}
	}
}
