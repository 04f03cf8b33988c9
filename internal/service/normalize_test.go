package service

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzJobSpecNormalize drives the POST /v1/jobs boundary — strict decode,
// Normalize, Key — with arbitrary bodies. Nothing may panic; a spec that
// normalizes must be a fixed point of Normalize, and its cache key must
// survive the marshal/unmarshal round trip a fleet front puts it through.
// The committed corpus (testdata/fuzz) holds one valid spec per kind plus
// the rejected shapes: the two LinkConfig specs that used to panic in a
// runner goroutine, a two-payload spec, an unknown kind, a LinkConfig
// naming a wiring field the strict decode refuses, two rare proposals
// outside [BER, 1), and specs naming Config fields their fabric ignores:
// NoExpress on a grid, Levels on a scenario (both valid) and a scenario
// InternalFlipProb (refused).
func FuzzJobSpecNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, ok := decodeBody(body)
		if !ok {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized spec rejected on the second pass: %v\n%+v", err, norm)
		}
		if !reflect.DeepEqual(norm, again) {
			t.Fatalf("Normalize is not idempotent:\nfirst  %+v\nsecond %+v", norm, again)
		}
		wire, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("normalized spec does not marshal: %v", err)
		}
		var back JobSpec
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("normalized spec does not round-trip: %v\n%s", err, wire)
		}
		if back, err = back.Normalize(); err != nil {
			t.Fatalf("round-tripped spec rejected: %v\n%s", err, wire)
		}
		if back.Key() != norm.Key() {
			t.Fatalf("cache key moved across a JSON round trip:\n%s", wire)
		}
	})
}

// TestFuzzCorpusVerdicts pins what the committed corpus is for: the
// valid-* seeds normalize (one per kind, so the fuzz target exercises
// every table entry), the bad-* seeds decode and are rejected by
// Normalize, and the undecodable-* seeds are refused by the strict decode.
func TestFuzzCorpusVerdicts(t *testing.T) {
	valid := map[string]bool{}
	for _, name := range corpusNames(t) {
		spec, ok := decodeBody(corpusBody(t, name))
		if undecodable := strings.HasPrefix(name, "undecodable-"); ok == undecodable {
			t.Errorf("%s: decodes = %v", name, ok)
			continue
		} else if undecodable {
			continue
		}
		norm, err := spec.Normalize()
		switch {
		case strings.HasPrefix(name, "valid-") && err != nil:
			t.Errorf("%s: rejected: %v", name, err)
		case strings.HasPrefix(name, "bad-") && err == nil:
			t.Errorf("%s: accepted", name)
		case err == nil:
			valid[norm.Kind] = true
		}
	}
	for _, k := range kinds {
		if !valid[k.name] {
			t.Errorf("corpus has no valid %q spec", k.name)
		}
	}
}

// TestRareProposalNormalizes: every non-positive proposal is the
// automatic tilt and shares its cache key, and a proposal the estimators
// would refuse — at or above 1, or below any listed BER — is a 400 at
// submission instead of a job that fails in the worker.
func TestRareProposalNormalizes(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 1})
	body := func(proposal string) []byte {
		return []byte(`{"kind":"rare","seed":3,"rare":{"bers":[1e-9,1e-12],"max_trials":4096,"proposal_ber":` + proposal + `}}`)
	}
	auto, ok := decodeBody(body("0"))
	if !ok {
		t.Fatal("auto-tilt spec does not decode")
	}
	auto, err := auto.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		proposal string
		ok       bool
	}{
		{"-1", true},
		{"-1e-300", true},
		{"1e-9", true},
		{"0.5", true},
		{"1", false},
		{"2", false},
		{"1e-10", false},
		{"1e-12", false},
	} {
		spec, ok := decodeBody(body(tc.proposal))
		if !ok {
			t.Fatalf("proposal %s: does not decode", tc.proposal)
		}
		norm, err := spec.Normalize()
		if (err == nil) != tc.ok {
			t.Errorf("proposal %s: Normalize error %v, want accepted = %v", tc.proposal, err, tc.ok)
			continue
		}
		if tc.ok && strings.HasPrefix(tc.proposal, "-") && norm.Key() != auto.Key() {
			t.Errorf("proposal %s: key %s, the automatic tilt's %s", tc.proposal, norm.Key(), auto.Key())
		}
		if !tc.ok {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body(tc.proposal))))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("proposal %s: HTTP %d, want 400: %s", tc.proposal, rec.Code, rec.Body)
			}
		}
	}
}

// TestNegativeTimingOverrideRejected: a negative Serialization,
// Propagation or SwitchLatency would run the default timing under a key
// of its own, so every kind with a fabric Config answers it with a 400.
func TestNegativeTimingOverrideRejected(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 1})
	for _, spec := range []string{
		`{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6,"Seed":1,"Serialization":-5,"Propagation":-7},"N":100}}`,
		`{"kind":"comparison","seed":4,"comparison":{"base":{"Levels":1,"BER":1e-5,"Seed":7,"Propagation":-1},"n":300}}`,
		`{"kind":"scenario","seed":6,"scenario":{"base":{"Protocol":2,"Seed":17,"SwitchLatency":-2},` +
			`"topologies":[{"w":3,"h":3}],"workloads":[{"kind":"zipf","flows":4}],"bers":[1e-5],"n":40}}`,
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(spec)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("HTTP %d, want 400, for %s: %s", rec.Code, spec, rec.Body)
		}
	}
}

// TestIgnoredFabricFieldsNormalize: a Config field the kind's fabric
// ignores cannot split the cache key — chains (grid, comparison) ignore
// NoExpress and meshes (scenario) ignore Levels — and a scenario asking
// for switch-internal corruption, which a mesh would silently skip, is a
// 400 at submission.
func TestIgnoredFabricFieldsNormalize(t *testing.T) {
	grid := func(extra string) string {
		return `{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6,"Seed":1` + extra + `},"N":100}}`
	}
	comparison := func(extra string) string {
		return `{"kind":"comparison","seed":4,"comparison":{"base":{"Levels":1,"BER":1e-5,"Seed":7` + extra + `},"n":300}}`
	}
	scenario := func(extra string) string {
		return `{"kind":"scenario","seed":6,"scenario":{"base":{"Protocol":2,"Seed":17` + extra +
			`},"topologies":[{"w":3,"h":3}],"workloads":[{"kind":"zipf","flows":4}],"bers":[1e-5],"n":40}}`
	}
	srv := newTestServer(t, Config{ShardBudget: 1})
	for _, tc := range []struct {
		name, spec, same string // same: a spec that must share spec's key ("" = must be a 400)
	}{
		{"grid NoExpress", grid(`,"NoExpress":true`), grid("")},
		{"comparison NoExpress", comparison(`,"NoExpress":true`), comparison("")},
		{"scenario Levels", scenario(`,"Levels":3`), scenario("")},
		{"scenario InternalFlipProb", scenario(`,"InternalFlipProb":0.5`), ""},
	} {
		spec, ok := decodeBody([]byte(tc.spec))
		if !ok {
			t.Fatalf("%s: does not decode", tc.name)
		}
		norm, err := spec.Normalize()
		if tc.same == "" {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(tc.spec)))
			if err == nil || rec.Code != http.StatusBadRequest {
				t.Errorf("%s: Normalize error %v, HTTP %d, want a 400", tc.name, err, rec.Code)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		plain, ok := decodeBody([]byte(tc.same))
		if !ok {
			t.Fatalf("%s: reference spec does not decode", tc.name)
		}
		if plain, err = plain.Normalize(); err != nil {
			t.Fatal(err)
		}
		if norm.Key() != plain.Key() {
			t.Errorf("%s: key %s, the spec without the ignored field has %s", tc.name, norm.Key(), plain.Key())
		}
	}
}

// TestKindTableComplete: every Kind… constant has exactly one table entry
// and every payload field of JobSpec belongs to exactly one entry, under
// the JSON name the entry's messages print — so a seventh kind cannot be
// half-added.
func TestKindTableComplete(t *testing.T) {
	// The Kind… constants, read from the source: there is no other way to
	// enumerate them, and a table built from the same list proves nothing.
	f, err := parser.ParseFile(token.NewFileSet(), "service.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]int{}
	for _, k := range kinds {
		entries[k.name]++
	}
	consts := 0
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Values) != 1 || !strings.HasPrefix(vs.Names[0].Name, "Kind") {
			return true
		}
		lit, ok := vs.Values[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		consts++
		if entries[name] != 1 {
			t.Errorf("%s = %q has %d table entries, want 1", vs.Names[0].Name, name, entries[name])
		}
		return true
	})
	if consts != len(kinds) {
		t.Errorf("%d Kind constants, %d table entries", consts, len(kinds))
	}

	// Every pointer field of JobSpec is a payload; set each alone and ask
	// the table who owns it.
	rt := reflect.TypeOf(JobSpec{})
	payloads := 0
	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i)
		if field.Type.Kind() != reflect.Ptr {
			continue
		}
		payloads++
		var s JobSpec
		reflect.ValueOf(&s).Elem().Field(i).Set(reflect.New(field.Type.Elem()))
		var owners []string
		for _, k := range kinds {
			if k.present(s) {
				owners = append(owners, k.payload)
			}
		}
		jsonName, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		if len(owners) != 1 || owners[0] != jsonName {
			t.Errorf("JobSpec.%s (json %q) is claimed by entries %v, want exactly [%s]", field.Name, jsonName, owners, jsonName)
		}
		if _, ok := reflect.TypeOf(keySpec{}).FieldByName(field.Name); !ok {
			t.Errorf("JobSpec.%s has no keySpec field: it would not reach the cache key", field.Name)
		}
	}
	if payloads != len(kinds) {
		t.Errorf("%d payload fields, %d table entries", payloads, len(kinds))
	}
}

// FuzzDecodeSpec holds DecodeSpec to its contract (decodesAsReference):
// it accepts a body exactly when a DisallowUnknownFields decode of one
// JobSpec, followed by nothing but JSON whitespace, and Normalize both
// succeed, and then yields Normalize's spec and its Key; otherwise it
// answers 400 with the refusal's message. A second call on the same
// body, which the memo answers, must answer identically. The seeds are
// trailing-byte bodies, the writer-form specs and fallbackBodies.
func FuzzDecodeSpec(f *testing.F) {
	const spec = `{"kind":"sweep","seed":2,"sweep":{"bers":[1e-4,1e-5],"flits_per_point":20000}}`
	for _, b := range []string{
		spec + ` {"kind":"bogus"} garbage`,
		spec + ` garbage`,
		spec + " \t\r\n ",
		`{"kind":"sweep","seed":2,"mystery":1}`,
		``,
	} {
		f.Add([]byte(b))
	}
	for _, s := range writerFormSpecs(f) {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range fallbackBodies(f) {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) { decodesAsReference(t, body) })
}

// decodeBody is the strict POST /v1/jobs decode of a raw body, before
// Normalize.
func decodeBody(body []byte) (JobSpec, bool) {
	spec, err := decodeStrict(body)
	return spec, err == nil
}

const corpusDir = "testdata/fuzz/FuzzJobSpecNormalize"

func corpusNames(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// corpusBody extracts the []byte("…") argument of a go-fuzz v1 seed file.
func corpusBody(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: not a one-argument []byte seed: %v", name, err)
	}
	return []byte(body)
}
