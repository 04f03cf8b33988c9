package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/link"
)

// writerFormSpecs are specs whose json.Marshal bodies are the ones a
// Client submits and a fleet front forwards.
func writerFormSpecs(t testing.TB) map[string]JobSpec {
	norm, err := hitSpec(hitSeed).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	with := func(edit func(*JobSpec)) JobSpec {
		s := hitSpec(hitSeed)
		g := *s.Grid
		s.Grid = &g
		edit(&s)
		return s
	}
	return map[string]JobSpec{
		"hit":            hitSpec(hitSeed),
		"normalized hit": norm,
		"max seed":       hitSpec(math.MaxUint64),
		"negative zero":  with(func(s *JobSpec) { s.Grid.Base.BER = math.Copysign(0, -1) }),
		"denormal BER":   with(func(s *JobSpec) { s.Grid.Base.BER = 5e-324 }),
		"tiny BER":       with(func(s *JobSpec) { s.Grid.Base.BER = 1e-300 }),
		"scheduling":     with(func(s *JobSpec) { s.Priority, s.TimeoutMS, s.Workers = -3, 60_000, 2 }),
		"byte-level":     with(func(s *JobSpec) { s.Grid.Base.NoFastPath = true }),
		"timing override": with(func(s *JobSpec) {
			s.Grid.Base.Serialization, s.Grid.Base.Propagation, s.Grid.Base.SwitchLatency = 1, 20, 300
		}),
		"two-axis grid": with(func(s *JobSpec) {
			s.Grid.Protocols = []link.Protocol{link.ProtocolCXL, link.ProtocolRXL}
			s.Grid.BERs = []float64{1e-6, 1e-5}
			s.Grid.Seeds = []uint64{7}
		}),
		"empty axes": with(func(s *JobSpec) {
			s.Grid.Protocols, s.Grid.Levels, s.Grid.BERs, s.Grid.Seeds = []link.Protocol{}, []int{}, []float64{}, []uint64{}
		}),
	}
}

// hitSeed is a 20-digit seed, like most of the random seeds serve_mix's
// clients submit.
const hitSeed = 16_045_690_984_833_335_023

// fallbackBodies holds one body per way a submit departs from the form
// json.Marshal writes a grid spec in: bodies the strict decoder refuses,
// bodies Normalize refuses, and bodies both accept in a form no client
// writes.
func fallbackBodies(t testing.TB) map[string]string {
	canonical, err := json.Marshal(hitSpec(hitSeed))
	if err != nil {
		t.Fatal(err)
	}
	hit := string(canonical)
	replace := func(old, new string) string {
		if !strings.Contains(hit, old) {
			t.Fatalf("%q is not in the hit body %s", old, hit)
		}
		return strings.Replace(hit, old, new, 1)
	}
	return map[string]string{
		"another kind":         `{"kind":"sweep","seed":2,"sweep":{"bers":[1e-4,1e-5],"flits_per_point":20000}}`,
		"two payloads":         strings.TrimSuffix(hit, "}") + `,"sweep":{"bers":[1e-4],"flits_per_point":1}}`,
		"no payload":           `{"kind":"grid","seed":1}`,
		"null grid":            `{"kind":"grid","seed":1,"grid":null}`,
		"whitespace":           replace(`"seed":`, `"seed": `),
		"trailing whitespace":  hit + " \n",
		"trailing bytes":       hit + ` {"kind":"bogus"}`,
		"reordered keys":       replace(`{"kind":"grid","seed":16045690984833335023`, `{"seed":16045690984833335023,"kind":"grid"`),
		"case-folded key":      replace(`"BER":`, `"ber":`),
		"repeated key":         replace(`"seed":16045690984833335023`, `"seed":1,"seed":16045690984833335023`),
		"escaped kind":         replace(`"kind":"grid"`, `"kind":"gr\u0069d"`),
		"unknown field":        replace(`"N":2000`, `"N":2000,"mystery":1`),
		"link config":          replace(`"LinkConfig":null`, `"LinkConfig":{"ReplayBufferSize":64}`),
		"omitted Config field": replace(`"BurstProb":0,`, ``),
		"fractional integer":   replace(`"N":2000`, `"N":2000.0`),
		"negative seed":        replace(`"seed":16045690984833335023`, `"seed":-1`),
		"seed past 2^64":       replace(`"seed":16045690984833335023`, `"seed":18446744073709551616`),
		"BER out of range":     replace(`"BER":0.000001`, `"BER":1e400`),
		"leading zero":         replace(`"N":2000`, `"N":02000`),
		"string for a number":  replace(`"N":2000`, `"N":"2000"`),
		"axis of strings":      replace(`"Levels":null`, `"Levels":["1"]`),
		"trailing comma":       replace(`"BERs":null`, `"BERs":[1e-6,]`),
		"not an object":        `[1,2]`,
		"empty":                ``,
	}
}

// referenceDecode is DecodeSpec's contract on a body within the size
// bound, computed without DecodeSpec: one DisallowUnknownFields decode
// of a JobSpec followed by nothing but JSON whitespace, then Normalize
// and Key. msg is the refusal DecodeSpec answers 400 with, "" when the
// body is accepted.
func referenceDecode(body []byte) (norm JobSpec, key, msg string) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		err = errors.New("bytes after the spec")
	}
	if err != nil {
		return JobSpec{}, "", "decode spec: " + err.Error()
	}
	if norm, err = spec.Normalize(); err != nil {
		return JobSpec{}, "", err.Error()
	}
	return norm, norm.Key(), ""
}

// decodesAsReference requires DecodeSpec to answer body as
// referenceDecode does, on a first call and on a second, which the memo
// answers when the first was accepted: the normalized spec — equal, and
// marshalling to the same bytes, which is what the cache key sees
// (reflect.DeepEqual alone counts a BER of -0 equal to 0) — and its key,
// or a 400 with the reference's message. An accepted body of at most
// memoBodyMax bytes must then be in the memo. It reports whether the
// body was accepted.
func decodesAsReference(t *testing.T, body []byte) bool {
	t.Helper()
	want, wantKey, wantMsg := referenceDecode(body)
	accept := wantMsg == ""
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("the reference's spec does not marshal: %v", err)
	}
	for call := 1; call <= 2; call++ {
		rec := httptest.NewRecorder()
		got, key, ok := DecodeSpec(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if ok != accept {
			t.Fatalf("call %d: DecodeSpec ok=%v on %q, want the reference's verdict (refusal %q)", call, ok, body, wantMsg)
		}
		if !ok {
			var e struct {
				Error string `json:"error"`
			}
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error != wantMsg {
				t.Fatalf("call %d: DecodeSpec refused %q with %d %s, want 400 %q", call, body, rec.Code, rec.Body, wantMsg)
			}
			continue
		}
		gotJSON, err := json.Marshal(got)
		if err != nil || !bytes.Equal(gotJSON, wantJSON) || !reflect.DeepEqual(got, want) || key != wantKey {
			t.Fatalf("call %d: DecodeSpec reads %q as\n%s (key %s, %v), the reference as\n%s (key %s)",
				call, body, gotJSON, key, err, wantJSON, wantKey)
		}
	}
	if _, held := specs.get(body); accept && len(body) <= memoBodyMax && !held {
		t.Fatalf("the memo does not hold the accepted body %q", body)
	}
	return accept
}

// TestDecodeSpecReadsWriterForm: every form a grid spec reaches
// DecodeSpec in — a client's body and a front's normalized forward —
// is accepted as the reference accepts it, first by the strict path and
// then by the memo.
func TestDecodeSpecReadsWriterForm(t *testing.T) {
	for name, spec := range writerFormSpecs(t) {
		t.Run(name, func(t *testing.T) {
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !decodesAsReference(t, body) {
				t.Fatalf("the writer's own form is refused\n%s", body)
			}
		})
	}
}

// TestDecodeSpecFallbacks: each of fallbackBodies, twice, comes back
// exactly as the reference returns it, normalized spec and key or 400.
func TestDecodeSpecFallbacks(t *testing.T) {
	for name, body := range fallbackBodies(t) {
		t.Run(name, func(t *testing.T) { decodesAsReference(t, []byte(body)) })
	}
}

// memoLen is the number of bodies the spec memo holds.
func memoLen() int {
	specs.mu.Lock()
	defer specs.mu.Unlock()
	return len(specs.m)
}

// TestSpecMemoBounded: ten thousand distinct accepted bodies leave at
// most memoEntries in the memo, a body of memoBodyMax bytes is stored
// and one a byte longer is not, and no refused body is stored.
func TestSpecMemoBounded(t *testing.T) {
	decode := func(body []byte) bool {
		_, _, ok := DecodeSpec(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return ok
	}
	for seed := uint64(0); seed < 10_000; seed++ {
		body, err := json.Marshal(hitSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !decode(body) {
			t.Fatalf("seed %d: refused", seed)
		}
		if n := memoLen(); n > memoEntries {
			t.Fatalf("seed %d: the memo holds %d bodies, bound %d", seed, n, memoEntries)
		}
	}

	hit, err := json.Marshal(hitSpec(hitSeed))
	if err != nil {
		t.Fatal(err)
	}
	atBound := append(hit, bytes.Repeat([]byte(" "), memoBodyMax-len(hit))...)
	for _, tc := range []struct {
		name         string
		body         []byte
		accept, held bool
	}{
		{"at the bound", atBound, true, true},
		{"a byte over the bound", append(atBound, '\n'), true, false},
		{"refused by the decoder", append(hit, " garbage"...), false, false},
		{"refused by Normalize", []byte(`{"kind":"grid","seed":1}`), false, false},
		{"refused by validation", bytes.Replace(hit, []byte(`"N":2000`), []byte(`"N":0`), 1), false, false},
	} {
		if ok := decode(tc.body); ok != tc.accept {
			t.Errorf("%s: accepted = %v, want %v", tc.name, ok, tc.accept)
		}
		if _, held := specs.get(tc.body); held != tc.held {
			t.Errorf("%s: held by the memo = %v, want %v", tc.name, held, tc.held)
		}
	}
}

// TestSpecMemoEvictsOne: a body taken into a full memo displaces one
// entry, the one not looked up since it was stored, and the other
// memoEntries-1 stay where they were.
func TestSpecMemoEvictsOne(t *testing.T) {
	m := specMemo{m: make(map[string]memoSpec, memoEntries)}
	body := func(i int) []byte { return []byte(fmt.Sprintf(`{"seed":%d}`, i)) }
	for i := 0; i < memoEntries; i++ {
		m.put(body(i), memoSpec{key: strconv.Itoa(i)})
	}
	for i := 1; i < memoEntries; i++ {
		if _, ok := m.get(body(i)); !ok {
			t.Fatalf("body %d missing before the memo was full", i)
		}
	}
	m.put(body(memoEntries), memoSpec{key: "new"})
	if e, ok := m.get(body(memoEntries)); !ok || e.key != "new" {
		t.Fatal("the memo refused a body when full")
	}
	if _, ok := m.get(body(0)); ok {
		t.Fatal("the memo kept the one entry never looked up and dropped another")
	}
	for i := 1; i < memoEntries; i++ {
		if e, ok := m.get(body(i)); !ok || e.key != strconv.Itoa(i) {
			t.Fatalf("one insert into a full memo displaced body %d (held %v, entry %q)", i, ok, e.key)
		}
	}
}

// TestSpecMemoSharedByJobs submits a grid body and a scenario body
// concurrently through the handler, so every job and reply of each body
// shares one memo entry's pointers, and requires each entry to marshal
// to the same bytes after the jobs have run: nothing writes through a
// stored spec. Under -race it also catches a write that races a reader.
func TestSpecMemoSharedByJobs(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	grid, err := json.Marshal(smallGridSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	scenario := []byte(`{"kind":"scenario","seed":6,"scenario":{"base":{"Protocol":2,"Seed":17},` +
		`"topologies":[{"w":3,"h":3}],"workloads":[{"kind":"zipf","flows":4}],"bers":[1e-5],"n":40}}`)
	bodies := [][]byte{grid, scenario}
	before := make([][]byte, len(bodies))
	for i, body := range bodies {
		norm, _, ok := DecodeSpec(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if !ok {
			t.Fatalf("refused %s", body)
		}
		if before[i], err = json.Marshal(norm); err != nil {
			t.Fatal(err)
		}
	}

	const perBody = 8
	ids := make(chan string, perBody*len(bodies))
	var wg sync.WaitGroup
	for _, body := range bodies {
		for i := 0; i < perBody; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
				v, err := DecodeJobView(rec.Body.Bytes())
				if (rec.Code != http.StatusAccepted && rec.Code != http.StatusOK) || err != nil {
					t.Errorf("submit answered %d %s (%v)", rec.Code, rec.Body, err)
					return
				}
				ids <- v.ID
			}()
		}
	}
	wg.Wait()
	close(ids)
	c := NewInProcessClient(srv)
	for id := range ids {
		if v, err := c.Wait(context.Background(), id); err != nil || v.Status != StatusDone {
			t.Fatalf("job %s: %s %v", id, v.Status, err)
		}
	}
	for i, body := range bodies {
		e, ok := specs.get(body)
		if !ok {
			t.Fatalf("the memo dropped %s", body)
		}
		if after, err := json.Marshal(e.norm); err != nil || !bytes.Equal(after, before[i]) {
			t.Fatalf("the memo's spec for %s moved while its jobs ran:\nbefore %s\nafter  %s (%v)", body, before[i], after, err)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestSubmitBodyBounded: a submit body one byte over maxSpecBody is
// answered 413 and admits no job, whether its length is declared (then
// nothing of it is read) or not (then no more than one byte past the
// bound is read); a whitespace-padded spec of exactly maxSpecBody bytes
// is admitted.
func TestSubmitBodyBounded(t *testing.T) {
	srv := newTestServer(t, Config{})
	spec, err := json.Marshal(smallGridSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	padded := func(n int) []byte { return append(spec, bytes.Repeat([]byte(" "), n-len(spec))...) }
	over := padded(maxSpecBody + 1)
	post := func(body []byte, declared bool) (*httptest.ResponseRecorder, int) {
		cr := &countingReader{r: bytes.NewReader(body)}
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", cr)
		if declared {
			req.ContentLength = int64(len(body))
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec, cr.n
	}
	for _, tc := range []struct {
		name     string
		declared bool
		maxRead  int
	}{{"declared length", true, 0}, {"undeclared length", false, maxSpecBody + 1}} {
		rec, read := post(over, tc.declared)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: a body a byte over the bound answered %d %.200s, want 413", tc.name, rec.Code, rec.Body)
		}
		if read > tc.maxRead {
			t.Errorf("%s: %d bytes read, want at most %d", tc.name, read, tc.maxRead)
		}
	}
	if n := srv.Stats().JobsSubmitted; n != 0 {
		t.Fatalf("%d jobs admitted from oversized bodies", n)
	}
	if rec, _ := post(padded(maxSpecBody), true); rec.Code != http.StatusAccepted {
		t.Fatalf("a spec padded to the bound answered %d %s, want 202", rec.Code, rec.Body)
	}
	if n := srv.Stats().JobsSubmitted; n != 1 {
		t.Fatalf("%d jobs admitted, want the one at the bound", n)
	}
}
