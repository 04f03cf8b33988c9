package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/workload"
)

// The model fingerprint's pins: the SHA-256 of every cell's result as a
// JSON line, and the SHA-256 of every cell's Engine.Executed. An edit to
// either is an intended model change and is named as one.
const (
	fingerprintResults  = "c871b83abe995e9f0611275e5644eb1df51ba391f3f90dd3770e90db097a442f"
	fingerprintExecuted = "ebcacdd64a70bb8ca9bbd4f76453e22657e655adf0cef0642b37930b99a19fbe"
)

// fingerprintList holds one line per cell, in enumeration order: the
// first 8 hex digits of the SHA-256 of its JSON line and its
// Engine.Executed. It locates the first cell a failing pin moved.
const fingerprintList = "testdata/fingerprint.txt"

// fingerprintCell is one cell of the fingerprint: a mesh or torus
// scenario cell, or a chain experiment when scenario is nil.
type fingerprintCell struct {
	name     string
	scenario *ScenarioCell
	chain    Config
	n        int
}

// fingerprintCells enumerates the fingerprint's cell set.
//
// Mesh and torus: 3×3, 4×4 and 8×8 mesh and 3×3 and 4×4 torus × the six
// workloads of TestScenarioDifferentialMatrix (bit-reverse drops out on
// the 9-node fabrics) × its four fault scripts × BER {0, 1e-6, 1e-5,
// 1e-4} where BER times the script's factor is at most 2e-4 × RXL/CXL ×
// express on/off × fast/byte-level, 40 payloads per flow: 3 136 cells.
//
// Chains: 3 protocols × levels 0–4 × the same four BERs × internal flips
// {0, 1e-3} × fast/byte-level, 400 payloads: 240 cells.
func fingerprintCells() []fingerprintCell {
	topologies := []Topology{
		{Kind: TopoMesh, W: 3, H: 3},
		{Kind: TopoMesh, W: 4, H: 4},
		{Kind: TopoMesh, W: 8, H: 8},
		{Kind: TopoTorus, W: 3, H: 3},
		{Kind: TopoTorus, W: 4, H: 4},
	}
	workloads := []workload.Spec{
		{Kind: workload.KindUniform, Flows: 4},
		{Kind: workload.KindZipf, Flows: 6, Skew: 1.5},
		{Kind: workload.KindTranspose},
		{Kind: workload.KindBitReverse},
		{Kind: workload.KindSingleSink, SinkX: 1, SinkY: 1},
		{Kind: workload.KindReplay, Trace: scenarioReplayTrace},
	}
	faults := []FaultScript{
		{Kind: FaultNone},
		{Kind: FaultDegrade, StartNS: 150, Factor: 10},
		{Kind: FaultStorm, StartNS: 150, DurationNS: 250, Factor: 20},
		{Kind: FaultFlap, StartNS: 150, DurationNS: 120, Flaps: 2, PeriodNS: 400},
	}
	bers := []float64{0, 1e-6, 1e-5, 1e-4}

	var cells []fingerprintCell
	for _, topo := range topologies {
		for _, wl := range workloads {
			for _, fault := range faults {
				for _, ber := range bers {
					if ber*max(fault.Factor, 1) > 2e-4 {
						continue
					}
					for _, proto := range []link.Protocol{link.ProtocolRXL, link.ProtocolCXL} {
						for _, noExpress := range []bool{false, true} {
							for _, noFast := range []bool{false, true} {
								c := ScenarioCell{
									Cfg: Config{
										Protocol: proto, BER: ber, BurstProb: 0.4, Seed: 77,
										NoExpress: noExpress, NoFastPath: noFast,
									},
									Topo: topo, Workload: wl, Fault: fault,
								}
								if !c.Compatible() {
									continue
								}
								name := c.Name() + fmt.Sprintf("|express=%v|fast=%v", !noExpress, !noFast)
								cells = append(cells, fingerprintCell{name: name, scenario: &c, n: 40})
							}
						}
					}
				}
			}
		}
	}
	for _, proto := range Protocols {
		for levels := 0; levels <= 4; levels++ {
			for _, ber := range bers {
				for _, flips := range []float64{0, 1e-3} {
					for _, noFast := range []bool{false, true} {
						cfg := Config{
							Protocol: proto, Levels: levels, BER: ber, BurstProb: 0.4,
							InternalFlipProb: flips, Seed: 77, NoFastPath: noFast,
						}
						name := fmt.Sprintf("chain|%s|L%d|ber=%g|flips=%g|fast=%v", proto, levels, ber, flips, !noFast)
						cells = append(cells, fingerprintCell{name: name, chain: cfg, n: 400})
					}
				}
			}
		}
	}
	return cells
}

// run runs the cell and returns its JSON line and the engine's event
// count. A scenario cell runs as ScenarioCell.Run does, on a fabric it
// keeps to read the count; check additionally runs it through Run and
// requires the same result.
func (c fingerprintCell) run(check bool) (line []byte, executed uint64, err error) {
	var result any
	if c.scenario == nil {
		f, err := NewFabric(c.chain)
		if err != nil {
			return nil, 0, err
		}
		result, executed = (&Experiment{Fabric: f, N: c.n}).Run(), f.Eng.Executed
	} else {
		sc := *c.scenario
		flows, counts, err := sc.Flows()
		if err != nil {
			return nil, 0, err
		}
		fab, err := NewTopologyFabric(sc.Cfg, sc.Topo)
		if err != nil {
			return nil, 0, err
		}
		if err := fab.ApplyFault(sc.Fault, 0); err != nil {
			return nil, 0, err
		}
		var res MeshResult
		if counts != nil {
			for i := range counts {
				counts[i] = min(counts[i], c.n)
			}
			res = fab.RunWeighted(flows, counts)
		} else {
			res = fab.RunWorkload(flows, c.n)
		}
		sr := ScenarioResult{Topology: sc.Topo, Workload: sc.Workload, Fault: sc.Fault, Result: res}
		if check {
			ref, err := sc.Run(c.n)
			if err != nil {
				return nil, 0, err
			}
			if !reflect.DeepEqual(ref, sr) {
				return nil, 0, fmt.Errorf("%s: ScenarioCell.Run gives %+v, the fingerprint's run %+v", c.name, ref.Result, sr.Result)
			}
		}
		result, executed = sr, fab.Eng.Executed
	}
	line, err = json.Marshal(struct {
		Cell   string `json:"cell"`
		Result any    `json:"result"`
	}{c.name, result})
	return line, executed, err
}

// TestModelFingerprint is the committed form of "simulated output
// unchanged": every mesh, torus and chain cell of fingerprintCells, run
// on the sharded runner, must give the pinned results and event counts.
// It does not replace the differential suites, which compare the fast
// path with the byte-level reference; this compares both with the past.
// On a mismatch it names the first cell that moved and prints its JSON
// line, and writes the new per-cell list to a temporary file for an
// intended model change to commit.
func TestModelFingerprint(t *testing.T) {
	cells := fingerprintCells()
	if len(cells) != 3136+240 {
		t.Fatalf("the fingerprint enumerates %d cells, want 3 376", len(cells))
	}
	type out struct {
		line     []byte
		executed uint64
	}
	outs, err := runner.Map(context.Background(), runner.Pool{}, len(cells), func(_ context.Context, s runner.Shard) (out, error) {
		// One mesh cell in 97 is also run through ScenarioCell.Run, so the
		// fingerprint's copy of it cannot drift from the real one.
		line, executed, err := cells[s.Index].run(s.Index%97 == 0 && cells[s.Index].scenario != nil)
		return out{line, executed}, err
	})
	if err != nil {
		t.Fatal(err)
	}

	results, events := sha256.New(), sha256.New()
	entries := make([]string, len(outs))
	for i, o := range outs {
		results.Write(o.line)
		results.Write([]byte{'\n'})
		fmt.Fprintf(events, "%d\n", o.executed)
		sum := sha256.Sum256(o.line)
		entries[i] = fmt.Sprintf("%x %d", sum[:4], o.executed)
	}
	gotResults, gotExecuted := fmt.Sprintf("%x", results.Sum(nil)), fmt.Sprintf("%x", events.Sum(nil))
	if gotResults == fingerprintResults && gotExecuted == fingerprintExecuted {
		return
	}

	t.Errorf("model fingerprint moved:\nresults  %s, pinned %s\nexecuted %s, pinned %s",
		gotResults, fingerprintResults, gotExecuted, fingerprintExecuted)
	if f, err := os.CreateTemp("", "fingerprint-*.txt"); err == nil {
		f.WriteString(strings.Join(entries, "\n") + "\n")
		f.Close()
		t.Logf("the per-cell list of this run is in %s", f.Name())
	}
	b, err := os.ReadFile(fingerprintList)
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	for i, got := range entries {
		if i == len(pinned) {
			t.Fatalf("%s lists %d cells, the fingerprint runs %d", fingerprintList, len(pinned), len(entries))
		}
		if got != pinned[i] {
			t.Fatalf("first moved cell, %d of %d: %s\n(line digest, executed) %s, pinned %s\nits JSON line:\n%s",
				i, len(entries), cells[i].name, got, pinned[i], outs[i].line)
		}
	}
	t.Fatalf("every cell matches %s, but the pins do not: the list is stale", fingerprintList)
}
