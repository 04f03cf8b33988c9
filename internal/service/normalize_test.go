package service

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
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
// runner goroutine, a two-payload spec, an unknown kind, and a LinkConfig
// naming a wiring field the strict decode refuses.
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

// decodeBody is the daemon's strict POST /v1/jobs decode of a raw body.
func decodeBody(body []byte) (JobSpec, bool) {
	return DecodeSpec(httptest.NewRecorder(),
		httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
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
