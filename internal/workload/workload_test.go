package workload

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func mustGenerate(t *testing.T, spec Spec, w, h int, seed uint64) []Flow {
	t.Helper()
	flows, err := Generate(spec, w, h, seed)
	if err != nil {
		t.Fatalf("Generate(%+v, %dx%d): %v", spec, w, h, err)
	}
	return flows
}

// assertFlowInvariants checks the cross-generator contract: in-bounds,
// no self-flows, no duplicate (src,dst) pairs.
func assertFlowInvariants(t *testing.T, flows []Flow, w, h int) {
	t.Helper()
	if len(flows) == 0 {
		t.Fatal("empty flow set")
	}
	seen := make(map[Flow]bool)
	for _, f := range flows {
		if f.SrcX < 0 || f.SrcX >= w || f.SrcY < 0 || f.SrcY >= h ||
			f.DstX < 0 || f.DstX >= w || f.DstY < 0 || f.DstY >= h {
			t.Fatalf("flow %+v outside %dx%d", f, w, h)
		}
		if f.SrcX == f.DstX && f.SrcY == f.DstY {
			t.Fatalf("self-flow %+v", f)
		}
		if seen[f] {
			t.Fatalf("duplicate flow %+v", f)
		}
		seen[f] = true
	}
}

func TestGenerateDeterminism(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindUniform, Flows: 12},
		{Kind: KindZipf, Flows: 12, Skew: 1.5},
		{Kind: KindTranspose},
		{Kind: KindBitReverse},
		{Kind: KindSingleSink, SinkX: 1, SinkY: 1},
	} {
		t.Run(spec.Kind, func(t *testing.T) {
			a := mustGenerate(t, spec, 4, 4, 42)
			b := mustGenerate(t, spec, 4, 4, 42)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same (spec,geometry,seed) produced different flows")
			}
			assertFlowInvariants(t, a, 4, 4)
		})
	}

	// Random kinds respond to the seed; permutations ignore it.
	u1 := mustGenerate(t, Spec{Kind: KindUniform, Flows: 12}, 4, 4, 1)
	u2 := mustGenerate(t, Spec{Kind: KindUniform, Flows: 12}, 4, 4, 2)
	if reflect.DeepEqual(u1, u2) {
		t.Error("uniform flows identical across seeds")
	}
	p1 := mustGenerate(t, Spec{Kind: KindTranspose}, 4, 4, 1)
	p2 := mustGenerate(t, Spec{Kind: KindTranspose}, 4, 4, 2)
	if !reflect.DeepEqual(p1, p2) {
		t.Error("transpose flows vary with seed")
	}
}

func TestZipfSkew(t *testing.T) {
	// With strong skew, node 0 must be the modal destination by a wide
	// margin: count destination hits over many draws.
	flows := mustGenerate(t, Spec{Kind: KindZipf, Flows: 100, Skew: 2}, 8, 8, 7)
	assertFlowInvariants(t, flows, 8, 8)
	hits := make(map[int]int)
	for _, f := range flows {
		hits[f.DstY*8+f.DstX]++
	}
	// Distinct-pair dedup caps node 0 at 63 appearances; with skew 2 over
	// 64 nodes ~43% of raw draws hit node 0, so well above any other node.
	best, bestID := 0, -1
	for id, c := range hits {
		if c > best {
			best, bestID = c, id
		}
	}
	if bestID != 0 {
		t.Errorf("hottest destination is node %d (%d hits), want node 0 (%d hits)", bestID, best, hits[0])
	}
	if hits[0] < 3*hits[1] && hits[0] < 20 {
		t.Errorf("hot-spot not skewed: node0=%d node1=%d", hits[0], hits[1])
	}
}

func TestTransposeAndBitReverse(t *testing.T) {
	flows := mustGenerate(t, Spec{Kind: KindTranspose}, 3, 3, 0)
	assertFlowInvariants(t, flows, 3, 3)
	if len(flows) != 6 { // 9 nodes minus 3 diagonal fixed points
		t.Fatalf("transpose produced %d flows, want 6", len(flows))
	}
	for _, f := range flows {
		if f.DstX != f.SrcY || f.DstY != f.SrcX {
			t.Errorf("flow %+v is not a transpose", f)
		}
	}

	flows = mustGenerate(t, Spec{Kind: KindBitReverse}, 4, 4, 0)
	assertFlowInvariants(t, flows, 4, 4)
	// 16 nodes, 4-bit reversal: fixed points are ids whose nibble is a
	// palindrome (0000,0110,1001,1111) — 12 flows remain.
	if len(flows) != 12 {
		t.Fatalf("bitrev produced %d flows, want 12", len(flows))
	}
	for _, f := range flows {
		id := f.SrcY*4 + f.SrcX
		rev := f.DstY*4 + f.DstX
		wantRev := (id&1)<<3 | (id&2)<<1 | (id&4)>>1 | (id&8)>>3
		if rev != wantRev {
			t.Errorf("node %d maps to %d, want %d", id, rev, wantRev)
		}
	}
}

func TestSingleSink(t *testing.T) {
	flows := mustGenerate(t, Spec{Kind: KindSingleSink, SinkX: 2, SinkY: 1}, 4, 3, 0)
	assertFlowInvariants(t, flows, 4, 3)
	if len(flows) != 11 {
		t.Fatalf("singlesink produced %d flows, want 11", len(flows))
	}
	for _, f := range flows {
		if f.DstX != 2 || f.DstY != 1 {
			t.Errorf("flow %+v does not target the sink", f)
		}
	}
}

func TestReplay(t *testing.T) {
	spec := Spec{Kind: KindReplay, Trace: "1 0 40\n2 0 40\n3 0\n0 3 5\n1 0 2\n"}
	flows := mustGenerate(t, spec, 2, 2, 0)
	assertFlowInvariants(t, flows, 2, 2)
	// The duplicate "1 0 2" record merges into the first 1→0 occurrence.
	want := []Flow{
		{SrcX: 1, DstX: 0, Count: 42},
		{SrcX: 0, SrcY: 1, DstX: 0, Count: 40},
		{SrcX: 1, SrcY: 1, DstX: 0, Count: 1},
		{SrcX: 0, DstX: 1, DstY: 1, Count: 5},
	}
	if !reflect.DeepEqual(flows, want) {
		t.Fatalf("replay flows = %+v, want %+v", flows, want)
	}

	for _, f := range mustGenerate(t, Spec{Kind: KindUniform}, 2, 2, 0) {
		if f.Count != 0 {
			t.Errorf("generated flow %+v carries a replay count", f)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	incompatible := []struct {
		name string
		spec Spec
		w, h int
	}{
		{"transpose non-square", Spec{Kind: KindTranspose}, 4, 3},
		{"bitrev non-pow2", Spec{Kind: KindBitReverse}, 3, 3},
		{"sink outside", Spec{Kind: KindSingleSink, SinkX: 9}, 2, 2},
		{"replay node outside", Spec{Kind: KindReplay, Trace: "0 99\n"}, 2, 2},
		{"too many distinct flows", Spec{Kind: KindUniform, Flows: 100}, 2, 2},
		{"single node", Spec{Kind: KindUniform}, 1, 1},
	}
	for _, c := range incompatible {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Generate(c.spec, c.w, c.h, 0); !errors.Is(err, ErrIncompatible) {
				t.Errorf("err = %v, want ErrIncompatible", err)
			}
		})
	}

	invalid := []struct {
		name string
		spec Spec
	}{
		{"empty kind", Spec{}},
		{"unknown kind", Spec{Kind: "tornado"}},
		{"negative skew", Spec{Kind: KindZipf, Skew: -1}},
		{"skew on uniform", Spec{Kind: KindUniform, Skew: 1}},
		{"params on transpose", Spec{Kind: KindTranspose, Flows: 3}},
		{"replay without trace", Spec{Kind: KindReplay}},
		{"replay bad trace", Spec{Kind: KindReplay, Trace: "x y\n"}},
	}
	for _, c := range invalid {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Generate(c.spec, 4, 4, 0); err == nil {
				t.Error("no error")
			} else if errors.Is(err, ErrIncompatible) {
				t.Errorf("invalid spec reported as geometry incompatibility: %v", err)
			}
		})
	}

	if _, err := Generate(Spec{Kind: KindUniform}, 0, 4, 0); err == nil || !strings.Contains(err.Error(), "bad fabric") {
		t.Errorf("bad geometry err = %v", err)
	}
}

func TestNormalizedDefaults(t *testing.T) {
	n, err := Spec{Kind: KindZipf}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Skew != 1.2 || n.Flows != 8 {
		t.Errorf("zipf defaults = %+v", n)
	}
	if name := n.Name(); !strings.Contains(name, "zipf") {
		t.Errorf("name = %q", name)
	}
}
