package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
)

// writerFormSpecs are specs whose json.Marshal bodies readSpec must read:
// the bodies a Client submits and a fleet front forwards.
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

// readsAsWritten requires readSpec to take spec's json.Marshal body and
// return a spec that marshals to the same bytes — what the cache key
// sees — and that the strict decoder reads too.
func readsAsWritten(t *testing.T, spec JobSpec) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := readSpec(body)
	if !ok {
		t.Fatalf("the hand reader refuses the writer's own form\n%s", body)
	}
	if m, err := json.Marshal(got); err != nil || !bytes.Equal(m, body) {
		t.Fatalf("the hand reader reads\n%s\nas a spec that marshals to\n%s (%v)", body, m, err)
	}
	want, err := decodeStrict(body)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("the hand reader reads\n%s\nas %+v, the strict decoder as %+v (%v)", body, got, want, err)
	}
}

// TestDecodeSpecReadsWriterForm: the hand reader answers, without the
// fallback, on every form a grid spec reaches DecodeSpec in.
func TestDecodeSpecReadsWriterForm(t *testing.T) {
	for name, spec := range writerFormSpecs(t) {
		t.Run(name, func(t *testing.T) { readsAsWritten(t, spec) })
	}
}

// decodeMatchesStrict requires DecodeSpec to answer body exactly as the
// strict decoder does: its spec on success, else a 400 carrying its error.
func decodeMatchesStrict(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := decodeStrict(body)
	rec := httptest.NewRecorder()
	got, ok := DecodeSpec(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	switch {
	case ok != (wantErr == nil):
		t.Fatalf("DecodeSpec ok=%v on %q, the strict decoder's error %v", ok, body, wantErr)
	case ok && !reflect.DeepEqual(got, want):
		t.Fatalf("DecodeSpec reads %q as %+v, the strict decoder as %+v", body, got, want)
	case !ok && (rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), strconv.Quote("decode spec: "+wantErr.Error()))):
		t.Fatalf("DecodeSpec refused %q with %d %s, want 400 %q", body, rec.Code, rec.Body, wantErr)
	}
}

// TestDecodeSpecFallbacks feeds one body per reason the hand reader
// refuses one, and requires each to come back exactly as the strict
// decoder returns it, spec or error.
func TestDecodeSpecFallbacks(t *testing.T) {
	canonical, err := json.Marshal(hitSpec(hitSeed))
	if err != nil {
		t.Fatal(err)
	}
	hit := string(canonical)
	if _, ok := readSpec(canonical); !ok {
		t.Fatalf("the hand reader refuses the writer's own form %s", hit)
	}
	replace := func(old, new string) string {
		if !strings.Contains(hit, old) {
			t.Fatalf("%q is not in the hit body %s", old, hit)
		}
		return strings.Replace(hit, old, new, 1)
	}
	for name, body := range map[string]string{
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
	} {
		t.Run(name, func(t *testing.T) {
			if _, ok := readSpec([]byte(body)); ok {
				t.Fatalf("the hand reader takes %s", body)
			}
			decodeMatchesStrict(t, []byte(body))
		})
	}
}

// TestSpecReaderCoversEveryField sets every field of JobSpec's envelope,
// of core.Grid and of core.Config to a non-zero value and requires the
// hand reader to take the marshalled spec. A field added to one of those
// types then fails here, instead of quietly sending every hit to the
// strict decoder. The one field left zero is Config.LinkConfig: a
// non-null link config is the strict decoder's to read.
func TestSpecReaderCoversEveryField(t *testing.T) {
	spec := JobSpec{Grid: &core.Grid{}}
	n := 0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			switch {
			case name == "JobSpec.Grid":
				fill(f.Elem(), name)
			case name == "JobSpec.Grid.Base.LinkConfig":
			case path == "JobSpec" && f.Kind() == reflect.Pointer:
				// another kind's payload: the strict decoder's
			case f.Kind() == reflect.Struct:
				fill(f, name)
			case f.Kind() == reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 2, 2))
				for j := 0; j < 2; j++ {
					n++
					setScalar(t, f.Index(j), name, n)
				}
			default:
				n++
				setScalar(t, f, name, n)
			}
		}
	}
	fill(reflect.ValueOf(&spec).Elem(), "JobSpec")
	readsAsWritten(t, spec)
}

// setScalar sets v, the field name of a served type, to a value derived
// from n: non-zero and distinct from its siblings.
func setScalar(t *testing.T, v reflect.Value, name string, n int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("x%d", n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint64:
		v.SetUint(math.MaxUint64 - uint64(n))
	case reflect.Float64:
		v.SetFloat(float64(n) / 7)
	default:
		t.Fatalf("%s has type %s: teach readSpec and this test about it", name, v.Type())
	}
}

// FuzzSpecReaderTakesWriterForm builds a grid spec from the fuzz input
// and requires the hand reader to take its json.Marshal body, reading a
// spec that marshals to the same bytes.
func FuzzSpecReaderTakesWriterForm(f *testing.F) {
	f.Add(uint64(hitSeed), 0, int64(0), 0, 2, 1, 1e-6, 0.0, 0.0, uint64(0), uint8(0), int64(0), 2000, 1e-5)
	f.Add(uint64(1), 0, int64(0), 0, 2, 1, 1e-6, 0.0, 0.0, uint64(0), uint8(0x14), int64(0), 2000, 1e-5)
	f.Add(uint64(math.MaxUint64), -3, int64(60_000), 2, 0, 4, math.Copysign(0, -1), 0.4, 1e-3, uint64(7),
		uint8(0xff), int64(-20), math.MaxInt, 5e-324)
	f.Fuzz(func(t *testing.T, seed uint64, priority int, timeoutMS int64, workers, protocol, levels int,
		ber, burst, flip float64, cfgSeed uint64, flags uint8, timing int64, n int, axisBER float64) {
		// flags: bit 0 NoFastPath, bit 1 NoExpress; bits 2-3 the
		// Protocols and Levels axes, 4-5 BERs and Seeds, each pair read as
		// null / [] / one value / two values.
		axis := func(shift uint) int { return int(flags>>shift) & 3 }
		g := &core.Grid{
			Base: core.Config{
				Protocol: link.Protocol(protocol), Levels: levels, BER: ber, BurstProb: burst,
				InternalFlipProb: flip, Seed: cfgSeed, NoFastPath: flags&1 != 0, NoExpress: flags&2 != 0,
				Serialization: sim.Time(timing), Propagation: sim.Time(timing >> 20), SwitchLatency: sim.Time(-timing),
			},
			Protocols: fuzzAxis(axis(2), link.Protocol(protocol), link.Protocol(levels)),
			Levels:    fuzzAxis(axis(2), levels, protocol),
			BERs:      fuzzAxis(axis(4), axisBER, ber),
			Seeds:     fuzzAxis(axis(4), cfgSeed, seed),
			N:         n,
		}
		spec := JobSpec{Kind: KindGrid, Seed: seed, Priority: priority, TimeoutMS: timeoutMS, Workers: workers, Grid: g}
		if _, err := json.Marshal(spec); err != nil {
			t.Skip("a NaN or infinite float: not a spec json.Marshal writes")
		}
		readsAsWritten(t, spec)
	})
}

// fuzzAxis is an axis of a fuzzed grid: nil, empty, [a] or [a, b] for
// shape 0 to 3.
func fuzzAxis[T any](shape int, a, b T) []T {
	switch shape {
	case 0:
		return nil
	case 1:
		return []T{}
	case 2:
		return []T{a}
	}
	return []T{a, b}
}
