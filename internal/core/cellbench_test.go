package core

import (
	"testing"

	"repro/internal/link"
	"repro/internal/workload"
)

// BenchmarkScenarioCell runs whole scenario cells through ScenarioCell.Run
// in the three shapes of the benchmark's mesh workloads (bench/mesh.go):
// an 8×8 RXL mesh at BER 1e-6 with 16 uniform flows, the same on a torus
// at BER 1e-5 under a fault storm, and the clean shape on the byte-level
// reference. Seeds are fixed, so every iteration of a shape runs the same
// cell. It is the profiling target of the cell path:
//
//	go test -run '^$' -bench ScenarioCell/mesh_clean -cpuprofile cpu.out ./internal/core/
func BenchmarkScenarioCell(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int // payloads per flow, as the benchmark runs them
		edit func(*ScenarioCell)
	}{
		{"mesh_clean", 6000, func(*ScenarioCell) {}},
		{"mesh_storm", 2000, func(c *ScenarioCell) {
			c.Topo.Kind = TopoTorus
			c.Cfg.BER = 1e-5
			c.Fault = FaultScript{Kind: FaultStorm}
		}},
		{"mesh_bytelevel", 1000, func(c *ScenarioCell) { c.Cfg.NoFastPath = true }},
	} {
		cell := ScenarioCell{
			Cfg:      Config{Protocol: link.ProtocolRXL, BER: 1e-6, BurstProb: 0.4, Seed: 1},
			Topo:     Topology{Kind: TopoMesh, W: 8, H: 8},
			Workload: workload.Spec{Kind: workload.KindUniform, Flows: 16},
		}
		tc.edit(&cell)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cell.Run(tc.n)
				if err != nil || !res.Clean() {
					b.Fatalf("cell: err=%v result=%v", err, res.Result)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*16*tc.n), "ns/payload")
		})
	}
}

// BenchmarkExperiment runs whole chain experiments through Experiment.Run,
// the chain counterpart of BenchmarkScenarioCell: the one-level RXL cell
// at BER 1e-6 with 2 000 payloads that every grid miss of the serving
// workloads computes (bench/serve.go's gridSpec), and a four-level CXL
// cell at BER 1e-5, where traversals get struck and the path schedules
// are consumed crossing by crossing. Seeds are fixed, so every iteration
// of a shape runs the same experiment.
//
//	go test -run '^$' -bench Experiment/serve_miss -cpuprofile cpu.out ./internal/core/
func BenchmarkExperiment(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
	}{
		{"serve_miss", Config{Protocol: link.ProtocolRXL, Levels: 1, BER: 1e-6, Seed: 1}, 2000},
		{"cxl_struck", Config{Protocol: link.ProtocolCXL, Levels: 4, BER: 1e-5, BurstProb: 0.4, Seed: 1}, 2000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := (&Experiment{Fabric: MustNewFabric(tc.cfg), N: tc.n}).Run()
				if res.Failures.Delivered == 0 {
					b.Fatalf("experiment delivered nothing: %v", res)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.n), "ns/payload")
		})
	}
}
