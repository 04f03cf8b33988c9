package switchfab_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/link"
)

// TestRegenerationsEqualInternalCorruptions runs a byte-level 4×4 mesh at
// BER 1e-6 with no internal fault point configured, so the routers
// regenerate nothing: InternalCorruptions must be zero, and every image a
// router forwards — including the ones its ingress decoder corrected —
// must already be a codeword under the byte-level reference syndromes
// and, in ModeCXL, carry a link CRC that checks. The images are observed
// by a FaultHook on every inter-router wire, which runs before the next
// hop's crossing of the path schedule strikes the image.
func TestRegenerationsEqualInternalCorruptions(t *testing.T) {
	flows := []core.MeshFlow{
		{SrcX: 0, SrcY: 0, DstX: 3, DstY: 3},
		{SrcX: 3, SrcY: 0, DstX: 0, DstY: 3},
		{SrcX: 1, SrcY: 3, DstX: 2, DstY: 0},
	}
	for _, proto := range []link.Protocol{link.ProtocolRXL, link.ProtocolCXL} {
		t.Run(proto.String(), func(t *testing.T) {
			m := core.MustNewMeshFabric(core.Config{
				Protocol: proto, BER: 1e-6, BurstProb: 0.4, Seed: 11, NoFastPath: true,
			}, 4, 4)
			fec := flit.NewFEC()
			var observed, badFEC, badCRC uint64
			hook := func(f *flit.Flit) bool {
				observed++
				if !fec.VerifyReference(f.Raw[:flit.ProtectedSize], f.FECField()) {
					badFEC++
				}
				if proto == link.ProtocolCXL && !f.CheckCRC() {
					badCRC++
				}
				return false
			}
			for x := 0; x < 4; x++ {
				for y := 0; y < 4; y++ {
					if x+1 < 4 {
						m.Mesh.InterRouterWire(x, y, x+1, y).FaultHook = hook
						m.Mesh.InterRouterWire(x+1, y, x, y).FaultHook = hook
					}
					if y+1 < 4 {
						m.Mesh.InterRouterWire(x, y, x, y+1).FaultHook = hook
						m.Mesh.InterRouterWire(x, y+1, x, y).FaultHook = hook
					}
				}
			}

			res := m.RunWorkload(flows, 4000)
			st := res.Routers
			if !res.Clean() {
				t.Fatalf("delivery not clean: %+v", res.PerFlow)
			}
			if st.CorrectedFlits == 0 {
				t.Fatal("no router corrected a flit; the skip after a correction is untested")
			}
			if st.InternalCorruptions != 0 {
				t.Fatalf("%d internal corruptions with no internal fault point", st.InternalCorruptions)
			}
			if passed := st.FlitsIn - st.DroppedUncorrectable - st.DroppedCRC - st.DroppedNoRoute; observed == 0 || observed+st.DeliveredLocal != passed {
				t.Fatalf("wires saw %d forwarded images + %d local deliveries, routers passed %d", observed, st.DeliveredLocal, passed)
			}
			if badFEC != 0 || badCRC != 0 {
				t.Fatalf("of %d forwarded images, %d were not FEC codewords and %d failed the link CRC", observed, badFEC, badCRC)
			}
			t.Logf("%d hops forwarded without regeneration, %d after a correction", observed, st.CorrectedFlits)
		})
	}
}
