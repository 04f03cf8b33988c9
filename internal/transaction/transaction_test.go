package transaction

import (
	"testing"
	"testing/quick"
)

func TestMessageEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(kind, cqid uint8, id uint32, addr uint64, tag, val uint16) bool {
		m := Message{Kind: Kind(kind%3 + 1), CQID: cqid, ID: id, Addr: addr, Tag: tag, Val: val}
		buf := make([]byte, MessageSize)
		m.Encode(buf)
		return DecodeMessage(buf) == m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	msgs := make([]Message, PackCapacity+5)
	for i := range msgs {
		msgs[i] = Message{Kind: KindReq, CQID: uint8(i), ID: uint32(i * 7), Addr: uint64(i) << 12, Tag: uint16(i), Val: uint16(i * 3)}
	}
	payload := make([]byte, 240)
	n := Pack(payload, msgs)
	if n != PackCapacity {
		t.Fatalf("packed %d, want capacity %d", n, PackCapacity)
	}
	got := Unpack(payload)
	if len(got) != n {
		t.Fatalf("unpacked %d", len(got))
	}
	for i := range got {
		if got[i] != msgs[i] {
			t.Fatalf("message %d mismatch: %+v vs %+v", i, got[i], msgs[i])
		}
	}
}

func TestPackPartial(t *testing.T) {
	payload := make([]byte, 240)
	n := Pack(payload, []Message{{Kind: KindReq, ID: 1}})
	if n != 1 {
		t.Fatalf("packed %d", n)
	}
	got := Unpack(payload)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("unpack: %+v", got)
	}
	if Pack(payload, nil) != 0 {
		t.Error("empty pack should return 0")
	}
	if len(Unpack(payload)) != 0 {
		t.Error("empty payload should unpack to nothing")
	}
}

func TestUnpackCorruptCountClamped(t *testing.T) {
	payload := make([]byte, 240)
	payload[0] = 0xFF // corrupted count
	got := Unpack(payload)
	if len(got) > PackCapacity {
		t.Fatalf("unpacked %d messages from corrupted count", len(got))
	}
}

func TestPackCapacityFitsRoutingBytes(t *testing.T) {
	// The packed region must leave the last two payload bytes free for
	// fabric routing tags.
	if 1+PackCapacity*MessageSize > 238 {
		t.Fatalf("pack region %d overlaps routing bytes", 1+PackCapacity*MessageSize)
	}
}

func TestKindStrings(t *testing.T) {
	if KindReq.String() != "REQ" || KindRsp.String() != "RSP" || KindData.String() != "DATA" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string")
	}
}

func TestSyntheticValueDeterministicAndSpread(t *testing.T) {
	if SyntheticValue(42) != SyntheticValue(42) {
		t.Fatal("not deterministic")
	}
	seen := map[uint16]bool{}
	for a := uint64(0); a < 1000; a++ {
		seen[SyntheticValue(a)] = true
	}
	if len(seen) < 950 {
		t.Fatalf("poor spread: %d distinct of 1000", len(seen))
	}
}

// loopback wires a host and device directly (no link layer).
func loopback() (*Host, *Device) {
	var h *Host
	var d *Device
	h = NewHost(func(m Message) { d.OnMessage(m) })
	d = NewDevice(func(m Message) { h.OnMessage(m) })
	return h, d
}

func TestHostDeviceHappyPath(t *testing.T) {
	h, d := loopback()
	for i := 0; i < 100; i++ {
		d.IssueRead(uint64(i)*64, uint8(i%4))
	}
	if d.Stats.Completed != 100 || len(d.outstanding) != 0 {
		t.Fatalf("completed %d, outstanding %d", d.Stats.Completed, len(d.outstanding))
	}
	if d.Stats.DuplicateData+d.Stats.OutOfOrderData+d.Stats.CorruptData+d.Stats.UnknownData != 0 {
		t.Fatalf("clean run reported failures: %+v", d.Stats)
	}
	if h.Stats.DuplicateExecutions != 0 {
		t.Fatal("clean run executed duplicates")
	}
}

func TestDuplicateRequestDetectedAtHost(t *testing.T) {
	h, d := loopback()
	d.IssueRead(0x1000, 0)
	// Replay of the same request flit (Fig. 5a): same ID arrives again.
	h.OnMessage(Message{Kind: KindReq, CQID: 0, ID: 0, Addr: 0x1000})
	if h.Stats.DuplicateExecutions != 1 {
		t.Fatalf("DuplicateExecutions = %d, want 1", h.Stats.DuplicateExecutions)
	}
	// The redundant data lands on the device as duplicate data.
	if d.Stats.DuplicateData != 1 {
		t.Fatalf("DuplicateData = %d, want 1", d.Stats.DuplicateData)
	}
}

func TestOutOfOrderDataDetected(t *testing.T) {
	_, d := loopback()
	// Issue two reads on the same CQID but bypass the host: deliver data
	// out of order (Fig. 5b).
	d2 := NewDevice(func(Message) {})
	id1 := d2.IssueRead(0x100, 7)
	id2 := d2.IssueRead(0x200, 7)
	d2.OnMessage(Message{Kind: KindData, CQID: 7, ID: id2, Addr: 0x200, Tag: 1, Val: SyntheticValue(0x200)})
	d2.OnMessage(Message{Kind: KindData, CQID: 7, ID: id1, Addr: 0x100, Tag: 0, Val: SyntheticValue(0x100)})
	if d2.Stats.OutOfOrderData == 0 {
		t.Fatal("out-of-order data not detected")
	}
	if d2.Stats.Completed != 2 {
		t.Fatalf("completed %d", d2.Stats.Completed)
	}
	_ = d
}

func TestDistinctCQIDsMayInterleave(t *testing.T) {
	d := NewDevice(func(Message) {})
	idA := d.IssueRead(0x100, 1)
	idB := d.IssueRead(0x200, 2)
	// Different CQIDs arriving in reverse issue order is legal.
	d.OnMessage(Message{Kind: KindData, CQID: 2, ID: idB, Addr: 0x200, Tag: 0, Val: SyntheticValue(0x200)})
	d.OnMessage(Message{Kind: KindData, CQID: 1, ID: idA, Addr: 0x100, Tag: 0, Val: SyntheticValue(0x100)})
	if d.Stats.OutOfOrderData != 0 {
		t.Fatal("cross-CQID interleave flagged as failure")
	}
}

func TestCorruptDataDetected(t *testing.T) {
	d := NewDevice(func(Message) {})
	id := d.IssueRead(0x100, 0)
	d.OnMessage(Message{Kind: KindData, CQID: 0, ID: id, Addr: 0x100, Tag: 0, Val: SyntheticValue(0x100) ^ 1})
	if d.Stats.CorruptData != 1 {
		t.Fatalf("CorruptData = %d, want 1", d.Stats.CorruptData)
	}
}

func TestUnknownDataDetected(t *testing.T) {
	d := NewDevice(func(Message) {})
	d.OnMessage(Message{Kind: KindData, CQID: 0, ID: 999, Addr: 0, Tag: 0})
	if d.Stats.UnknownData != 1 {
		t.Fatalf("UnknownData = %d, want 1", d.Stats.UnknownData)
	}
}

func TestHostIgnoresNonRequests(t *testing.T) {
	h := NewHost(func(Message) { t.Fatal("host responded to non-request") })
	h.OnMessage(Message{Kind: KindData, ID: 1})
	h.OnMessage(Message{Kind: KindRsp, ID: 2})
	if h.Stats.RequestsExecuted != 0 {
		t.Fatal("executed a non-request")
	}
}

func TestDeviceIgnoresNonData(t *testing.T) {
	d := NewDevice(func(Message) {})
	d.IssueRead(0x1, 0)
	d.OnMessage(Message{Kind: KindReq, ID: 0})
	if d.Stats.Completed != 0 {
		t.Fatal("completed on a non-data message")
	}
}

func BenchmarkPackUnpack(b *testing.B) {
	msgs := make([]Message, PackCapacity)
	for i := range msgs {
		msgs[i] = Message{Kind: KindData, ID: uint32(i), Addr: uint64(i)}
	}
	payload := make([]byte, 240)
	b.SetBytes(int64(PackCapacity * MessageSize))
	for i := 0; i < b.N; i++ {
		Pack(payload, msgs)
		Unpack(payload)
	}
}
