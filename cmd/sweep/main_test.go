package main

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRunPropagatesShardErrors: a failing runner stage (here: canceled
// context) must surface as an error from run — and therefore a non-zero
// exit from main — instead of printing and continuing with a truncated
// report.
func TestRunPropagatesShardErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, options{n: 100, mc: true, grid: true}, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run on canceled context: %v, want context.Canceled", err)
	}
}

// TestRunRareSectionOptIn: -rare adds the deep-tail section; without it
// the report stays the classic set.
func TestRunRareSectionOptIn(t *testing.T) {
	var plain strings.Builder
	if err := run(context.Background(), options{n: 200}, &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "Rare-event deep tails") {
		t.Fatal("rare section printed without -rare")
	}
	if !strings.Contains(plain.String(), "Section 7.1") {
		t.Fatal("report missing the Section 7.1 header")
	}
	if strings.Contains(plain.String(), "Scenario grid") {
		t.Fatal("scenario section printed without -scenarios")
	}
}

// TestRunScenariosSectionOptIn: -scenarios adds the scenario-grid
// section covering both topologies and every fault-campaign kind.
func TestRunScenariosSectionOptIn(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), options{n: 2000, scenarios: true}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"Scenario grid", "mesh4x4", "torus4x4",
		"storm(x20@150+250ns)", "flap(2x120ns/400ns)", "zipf(s=1.5,n=6)",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("scenario report missing %q", want)
		}
	}
}

// TestEq10LinesLabelDeviation: the Eq. 10 FIT and improvement lines print
// the per-path values under a deviation label, not beside the paper's
// one-link figures as if they were its values.
func TestEq10LinesLabelDeviation(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), options{n: 200}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Eq. 10 FIT RXL 1-switch    0.00585   (known deviation: L+1 = 2 links; paper's 2.9e-3 is one link)\n",
		"       improvement         9.22e+17   (known deviation: RXL over L+1 = 2 links; paper: >1e18)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks the line %q", want)
		}
	}
}
