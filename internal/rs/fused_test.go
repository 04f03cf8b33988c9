package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// encodeReference is Interleaved.Encode spelled out on the per-way
// Code.Encode byte loop: deinterleave each way, encode it, scatter its
// parity to the wire slots the round-robin assigns it.
func encodeReference(il *Interleaved, data, parity []byte) {
	for w, c := range il.codes {
		way := make([]byte, c.k)
		for i := range way {
			way[i] = data[i*ways+w]
		}
		p := make([]byte, nparity)
		c.Encode(way, p)
		for x := range parity {
			if il.parityWay[x] == w {
				parity[x] = p[il.parityIdx[x]]
			}
		}
	}
}

// TestFusedKernelsMatchReference pins the 3×2 stride-3 encode and clean
// check to the per-way reference on every tail length either loop can
// leave (data lengths 3..14 and around the flit's 250), for clean images
// and images carrying 1–3 random symbol errors.
func TestFusedKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	totals := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 249, 250, 251, 252}
	for _, total := range totals {
		il := MustNewInterleaved(total)
		for trial := 0; trial < 300; trial++ {
			data := randData(rng, total)
			got, want := make([]byte, 6), make([]byte, 6)
			il.Encode(data, got)
			encodeReference(il, data, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("total %d trial %d: Encode %x, per-way reference %x", total, trial, got, want)
			}
			corrupt(rng, data, got, trial%4)
			if v, r := il.Verify(data, got), il.VerifyReference(data, got); v != r {
				t.Fatalf("total %d trial %d: Verify %v, VerifyReference %v", total, trial, v, r)
			}
		}
	}
}

// flitData widens a fuzz input to the flit's 250 protected bytes.
func flitData(in []byte) []byte {
	data := make([]byte, 250)
	copy(data, in)
	return data
}

// FuzzInterleavedEncode: the dispatched Encode equals the per-way
// Code.Encode reference byte for byte, and its output is a codeword under
// the byte-level reference syndromes. The committed corpus holds all-zero,
// all-0xFF and random 250-byte images.
func FuzzInterleavedEncode(f *testing.F) {
	il := MustNewInterleaved(250)
	f.Fuzz(func(t *testing.T, in []byte) {
		data := flitData(in)
		got, want := make([]byte, 6), make([]byte, 6)
		il.Encode(data, got)
		encodeReference(il, data, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode %x, per-way reference %x", got, want)
		}
		if !il.VerifyReference(data, got) {
			t.Fatal("Encode output fails VerifyReference")
		}
	})
}

// FuzzReencodeIdentity pins the switch egress skip: decoding a codeword
// with at most one symbol error per way restores it exactly, so
// re-encoding the decoded data reproduces the parity byte for byte. Past
// t the decoder must answer Uncorrectable or land on a valid codeword.
// Throughout, the fused clean verdict must equal VerifyReference. The
// committed corpus covers a clean image, one error per way, two in one
// way, a burst straddling the parity field and a four-byte burst.
func FuzzReencodeIdentity(f *testing.F) {
	il := MustNewInterleaved(250)
	f.Fuzz(func(t *testing.T, in, errs []byte) {
		data := flitData(in)
		parity := make([]byte, 6)
		il.Encode(data, parity)
		img := append(append([]byte(nil), data...), parity...)
		// errs is (wire position, magnitude) pairs; position j lies in
		// way j%3 on data and parity alike.
		wire := append([]byte(nil), img...)
		for i := 0; i+1 < len(errs); i += 2 {
			wire[int(errs[i])%len(wire)] ^= errs[i+1]
		}
		var perWay [3]int
		for j := range wire {
			if wire[j] != img[j] {
				perWay[j%3]++
			}
		}
		copy(data, wire[:250])
		copy(parity, wire[250:])
		if v, r := il.Verify(data, parity), il.VerifyReference(data, parity); v != r {
			t.Fatalf("received image: Verify %v, VerifyReference %v", v, r)
		}
		res := il.Decode(data, parity)
		if res.Status == StatusUncorrectable {
			if perWay[0] <= 1 && perWay[1] <= 1 && perWay[2] <= 1 {
				t.Fatalf("errors per way %v within t, decode Uncorrectable", perWay)
			}
			return
		}
		if perWay[0] <= 1 && perWay[1] <= 1 && perWay[2] <= 1 &&
			!bytes.Equal(append(append([]byte(nil), data...), parity...), img) {
			t.Fatalf("errors per way %v within t, decode did not restore the codeword", perWay)
		}
		if v, r := il.Verify(data, parity), il.VerifyReference(data, parity); !v || !r {
			t.Fatalf("decode %v left a non-codeword: Verify %v, VerifyReference %v", res.Status, v, r)
		}
		reenc := make([]byte, 6)
		il.Encode(data, reenc)
		if !bytes.Equal(reenc, parity) {
			t.Fatalf("decode %v: re-encode %x differs from decoded parity %x", res.Status, reenc, parity)
		}
	})
}

// decodeReference is Interleaved.Decode spelled out on the per-way
// Code.decode: deinterleave every way, decode it, and write the ways back
// only when none is uncorrectable.
func decodeReference(il *Interleaved, data, parity []byte) Result {
	var words, pars [ways][]byte
	for w, c := range il.codes {
		words[w], pars[w] = make([]byte, c.k), make([]byte, nparity)
		for i := range words[w] {
			words[w][i] = data[i*ways+w]
		}
	}
	for x, p := range parity {
		pars[il.parityWay[x]][il.parityIdx[x]] = p
	}
	total := Result{Status: StatusClean}
	for w, c := range il.codes {
		res := c.decode(words[w], pars[w])
		switch res.Status {
		case StatusUncorrectable:
			return res
		case StatusCorrected:
			total.Status = StatusCorrected
			total.Corrected += res.Corrected
		}
	}
	for w := range words {
		for i, d := range words[w] {
			data[i*ways+w] = d
		}
	}
	for x := range parity {
		parity[x] = pars[il.parityWay[x]][il.parityIdx[x]]
	}
	return total
}

// checkDecodeMatchesReference decodes data||parity with Decode and with
// decodeReference and fails unless the results and the images agree, and
// an uncorrectable image is left exactly as received.
func checkDecodeMatchesReference(t *testing.T, il *Interleaved, data, parity []byte) {
	t.Helper()
	in := append(append([]byte(nil), data...), parity...)
	got := append([]byte(nil), in...)
	want := append([]byte(nil), in...)
	total := il.DataLen()
	res := il.Decode(got[:total], got[total:])
	ref := decodeReference(il, want[:total], want[total:])
	if res != ref {
		t.Fatalf("total %d: Decode %+v, per-way reference %+v", total, res, ref)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("total %d: Decode image %x, per-way reference %x", total, got, want)
	}
	if res.Status == StatusUncorrectable && !bytes.Equal(got, in) {
		t.Fatalf("total %d: uncorrectable Decode moved the image", total)
	}
}

// TestRemainderDecodeMatchesReference pins Decode — residues, locate,
// in-place correction — to the per-way reference on every tail length
// the remainder loops can leave, with 0–4 random symbol errors anywhere
// in the image, parity slots included.
func TestRemainderDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	totals := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 249, 250, 251, 252}
	for _, total := range totals {
		il := MustNewInterleaved(total)
		for trial := 0; trial < 500; trial++ {
			data := randData(rng, total)
			parity := make([]byte, 6)
			il.Encode(data, parity)
			corrupt(rng, data, parity, trial%5)
			checkDecodeMatchesReference(t, il, data, parity)
		}
	}
}

// FuzzDecodeMatchesReference drives wire error patterns through Decode
// and the per-way reference on the flit geometry. The committed corpus
// holds a flip in each of the six parity slots and a 3-byte burst across
// the data/parity boundary.
func FuzzDecodeMatchesReference(f *testing.F) {
	il := MustNewInterleaved(250)
	f.Fuzz(func(t *testing.T, in, errs []byte) {
		data := flitData(in)
		parity := make([]byte, 6)
		il.Encode(data, parity)
		// errs is (wire position, magnitude) pairs over data||parity.
		for i := 0; i+1 < len(errs); i += 2 {
			if x := int(errs[i]) % 256; x < 250 {
				data[x] ^= errs[i+1]
			} else {
				parity[x-250] ^= errs[i+1]
			}
		}
		checkDecodeMatchesReference(t, il, data, parity)
	})
}
