package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/workload"
)

// submitRoundRobin is the eager load Offer replaced: every payload sealed
// up front and Submitted, tags interleaved round-robin across the
// transmitters still offering.
func submitRoundRobin(txs []*link.Peer, counts []int) {
	for tag, n := 0, slices.Max(counts); tag < n; tag++ {
		for j, tx := range txs {
			if tag < counts[j] {
				tx.Submit(SealedPayload(uint64(tag)))
			}
		}
	}
}

// TestOfferMatchesSubmit: generating payloads at first transmission must
// be invisible — a chain experiment per protocol and BER, and an 8×8 mesh
// cell, give the same result JSON, engine event count and end time
// whether their payloads are offered or Submitted up front.
func TestOfferMatchesSubmit(t *testing.T) {
	type run struct {
		result   []byte
		executed uint64
		now      int64
	}
	same := func(t *testing.T, offered, submitted run) {
		t.Helper()
		if !bytes.Equal(offered.result, submitted.result) {
			t.Errorf("results differ:\noffer:  %s\nsubmit: %s", offered.result, submitted.result)
		}
		if offered.executed != submitted.executed || offered.now != submitted.now {
			t.Errorf("engine executed/now %d/%d, Submit %d/%d",
				offered.executed, offered.now, submitted.executed, submitted.now)
		}
	}
	encode := func(v interface{}) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, proto := range Protocols {
		for _, ber := range []float64{0, 1e-5} {
			t.Run(fmt.Sprintf("chain/%s/ber=%g", proto, ber), func(t *testing.T) {
				experiment := func(load func([]*link.Peer, []int)) run {
					f := MustNewFabric(Config{Protocol: proto, Levels: 2, BER: ber, BurstProb: 0.4, Seed: 7})
					res := (&Experiment{Fabric: f, N: 3000}).run(load)
					return run{encode(res), f.Eng.Executed, int64(f.Eng.Now())}
				}
				same(t, experiment(offer), experiment(submitRoundRobin))
			})
		}
	}

	t.Run("mesh-8x8", func(t *testing.T) {
		cell := ScenarioCell{
			Cfg:      Config{Protocol: link.ProtocolRXL, BER: 1e-6, BurstProb: 0.4, Seed: 1},
			Topo:     Topology{Kind: TopoMesh, W: 8, H: 8},
			Workload: workload.Spec{Kind: workload.KindUniform, Flows: 16},
		}
		flows, _, err := cell.Flows()
		if err != nil {
			t.Fatal(err)
		}
		counts := slices.Repeat([]int{1500}, len(flows))
		mesh := func(load func([]*link.Peer, []int)) run {
			fab, err := NewTopologyFabric(cell.Cfg, cell.Topo)
			if err != nil {
				t.Fatal(err)
			}
			res := fab.runWorkload(flows, counts, load)
			return run{encode(res), fab.Eng.Executed, int64(fab.Eng.Now())}
		}
		same(t, mesh(offer), mesh(submitRoundRobin))
	})
}

// TestOfferedPayloadBytes: on the fast path an offered payload is
// generated only when a byte of it is read, and whoever reads one sees
// the real bytes. A clean run hands every payload to DeliverClean by its
// tag; a receiver with only Deliver set gets each one generated and
// intact; a fault hook, which materializes the image, reads it complete;
// and Submitted bytes that reuse the replay entries a drained offered
// backlog left on the free list arrive as submitted, not as that
// backlog's payloads.
func TestOfferedPayloadBytes(t *testing.T) {
	const n = 300 // over two replay windows, so entries are recycled
	newFabric := func() *Fabric {
		return MustNewFabric(Config{Protocol: link.ProtocolRXL, Levels: 1, Seed: 3})
	}
	wantIntact := func(t *testing.T, got [][]byte) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("delivered %d payloads, want %d", len(got), n)
		}
		for i, p := range got {
			if tag := binary.BigEndian.Uint64(p); tag != uint64(i) || !PayloadIntact(p) {
				t.Fatalf("delivery %d: tag %d, intact %v", i, tag, PayloadIntact(p))
			}
		}
	}

	t.Run("clean-by-tag", func(t *testing.T) {
		f := newFabric()
		var bytesRead, byTag int
		f.B().Deliver = func([]byte) { bytesRead++ }
		f.B().DeliverClean = func(uint64) { byTag++ }
		f.A().Offer(n, seal)
		f.Run()
		if byTag != n || bytesRead != 0 {
			t.Fatalf("clean run: %d deliveries by tag, %d by bytes; want %d and 0", byTag, bytesRead, n)
		}
	})

	t.Run("deliver-only", func(t *testing.T) {
		f := newFabric()
		var got [][]byte
		f.B().Deliver = func(p []byte) { got = append(got, bytes.Clone(p)) }
		f.A().Offer(n, seal)
		f.Run()
		wantIntact(t, got)
	})

	t.Run("hook-reads-image", func(t *testing.T) {
		f := newFabric()
		var seen [][]byte
		f.Chain.Fwd[0].FaultHook = func(fl *flit.Flit) bool {
			if fl.Header().Type == flit.TypeData {
				seen = append(seen, bytes.Clone(fl.Image(nil)[flit.HeaderSize:flit.HeaderSize+flit.PayloadSize]))
			}
			return false
		}
		var got [][]byte
		f.B().Deliver = func(p []byte) { got = append(got, bytes.Clone(p)) }
		f.A().Offer(n, seal)
		f.Run()
		wantIntact(t, seen)
		wantIntact(t, got)
	})

	t.Run("submit-after-offer", func(t *testing.T) {
		f := newFabric()
		var got [][]byte
		f.B().Deliver = func(p []byte) { got = append(got, bytes.Clone(p)) }
		f.B().DeliverClean = func(uint64) {}
		f.A().Offer(n, seal)
		f.Run()
		var want [][]byte
		for i := range n {
			p := bytes.Repeat([]byte{byte(i), 0xa5}, flit.PayloadSize/2)
			want = append(want, p)
			f.A().Submit(p)
		}
		f.Run()
		if len(got) != n {
			t.Fatalf("delivered %d submitted payloads, want %d", len(got), n)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("submitted payload %d arrived as %x", i, got[i][:16])
			}
		}
	})
}

// TestRunWorkloadRejectsRepeatedFlow: two flows on one (src, dst) pair
// would share a peer pair, the second collector replacing the first's,
// and a clean fabric would report duplicates, reorders and losses.
func TestRunWorkloadRejectsRepeatedFlow(t *testing.T) {
	f := MeshFlow{SrcX: 0, SrcY: 0, DstX: 1, DstY: 1}
	for name, run := range map[string]func(*MeshFabric){
		"RunWorkload": func(m *MeshFabric) { m.RunWorkload([]MeshFlow{f, f}, 10) },
		"RunWeighted": func(m *MeshFabric) { m.RunWeighted([]MeshFlow{f, f}, []int{10, 10}) },
	} {
		t.Run(name, func(t *testing.T) {
			m := MustNewMeshFabric(Config{Protocol: link.ProtocolRXL}, 2, 2)
			defer func() {
				if recover() == nil {
					t.Fatal("repeated flow accepted")
				}
			}()
			run(m)
		})
	}
}

// TestMeshNodeOffMeshPanics: a position outside the mesh is refused, not
// folded onto the node whose index it computes to ((3,0) on a 3-wide
// mesh would otherwise be (0,1)).
func TestMeshNodeOffMeshPanics(t *testing.T) {
	m := MustNewMeshFabric(Config{Protocol: link.ProtocolRXL}, 3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("off-mesh node accepted")
		}
	}()
	m.Node(3, 0)
}
