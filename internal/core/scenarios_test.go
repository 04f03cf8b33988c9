package core

import (
	"testing"

	"repro/internal/link"
)

// TestFig4Scenario reproduces the paper's Fig. 4 at the link layer: under
// baseline CXL the AckNum-carrying flit is forwarded despite the missing
// predecessor, yielding out-of-order delivery; under RXL the ISN check
// catches the drop immediately.
func TestFig4Scenario(t *testing.T) {
	cxl := RunFig4(link.ProtocolCXL)
	if cxl.SwitchDrops == 0 {
		t.Fatal("CXL: scripted drop never happened")
	}
	if cxl.UnverifiedDelivered == 0 {
		t.Fatal("CXL: piggyback blind spot not exercised")
	}
	if !cxl.Misordered {
		t.Fatalf("CXL: expected out-of-order delivery, tags %v", cxl.Tags)
	}

	rxl := RunFig4(link.ProtocolRXL)
	if rxl.SwitchDrops == 0 {
		t.Fatal("RXL: scripted drop never happened")
	}
	if rxl.Misordered || rxl.Duplicates != 0 {
		t.Fatalf("RXL: delivery not clean, tags %v", rxl.Tags)
	}
	if rxl.CrcErrors == 0 {
		t.Fatal("RXL: ISN never flagged the drop")
	}
	if rxl.UnverifiedDelivered != 0 {
		t.Fatal("RXL: no flit may bypass verification")
	}
}

// TestFig4NoPiggyback: disabling piggybacking also avoids the misorder
// (every flit carries its explicit FSN) — the paper's costly alternative.
func TestFig4NoPiggyback(t *testing.T) {
	rep := RunFig4(link.ProtocolCXLNoPiggyback)
	if rep.Misordered {
		t.Fatalf("explicit FSNs must prevent misordering, tags %v", rep.Tags)
	}
	if rep.UnverifiedDelivered != 0 {
		t.Fatal("no-piggyback CXL must verify every flit")
	}
}

// TestFig5aDuplicateRequests reproduces Fig. 5a: under CXL the dropped
// request flit plus piggybacked successor leads to a request executing
// twice at the host; under RXL every request executes exactly once.
func TestFig5aDuplicateRequests(t *testing.T) {
	cxl := RunFig5a(link.ProtocolCXL)
	if cxl.SwitchDrops == 0 {
		t.Fatal("CXL: scripted drop never happened")
	}
	if cxl.DuplicateExecutions == 0 {
		t.Fatalf("CXL: expected duplicate request execution: %+v", cxl)
	}

	rxl := RunFig5a(link.ProtocolRXL)
	if rxl.SwitchDrops == 0 {
		t.Fatal("RXL: scripted drop never happened")
	}
	if !rxl.CleanTransactions() {
		t.Fatalf("RXL: transaction layer not clean: %+v", rxl)
	}
	if rxl.Completed != rxl.Issued {
		t.Fatalf("RXL: %d of %d transactions completed", rxl.Completed, rxl.Issued)
	}
	if rxl.LinkCrcErrors == 0 {
		t.Fatal("RXL: ISN never flagged the drop")
	}
}

// TestFig5bOutOfOrderData reproduces Fig. 5b: under CXL data sharing a
// CQID arrives out of order after a silent drop; under RXL order is
// preserved.
func TestFig5bOutOfOrderData(t *testing.T) {
	cxl := RunFig5b(link.ProtocolCXL)
	if cxl.SwitchDrops == 0 {
		t.Fatal("CXL: scripted drop never happened")
	}
	if cxl.OutOfOrderData == 0 {
		t.Fatalf("CXL: expected intra-CQID ordering violation: %+v", cxl)
	}

	rxl := RunFig5b(link.ProtocolRXL)
	if rxl.SwitchDrops == 0 {
		t.Fatal("RXL: scripted drop never happened")
	}
	if !rxl.CleanTransactions() {
		t.Fatalf("RXL: transaction layer not clean: %+v", rxl)
	}
	if rxl.Completed != rxl.Issued {
		t.Fatalf("RXL: %d of %d transactions completed", rxl.Completed, rxl.Issued)
	}
}

// TestFig5ScenariosComplete: both scripts finish all transactions under
// every protocol — the failures are semantic (duplicates, misorder), not
// lost work, matching the paper's description.
func TestFig5ScenariosComplete(t *testing.T) {
	for _, proto := range []link.Protocol{link.ProtocolCXL, link.ProtocolCXLNoPiggyback, link.ProtocolRXL} {
		a := RunFig5a(proto)
		if a.Issued == 0 || a.Completed < a.Issued-1 {
			t.Errorf("%v fig5a: issued %d completed %d", proto, a.Issued, a.Completed)
		}
		b := RunFig5b(proto)
		if b.Issued == 0 || b.Completed < b.Issued-1 {
			t.Errorf("%v fig5b: issued %d completed %d", proto, b.Issued, b.Completed)
		}
	}
}
