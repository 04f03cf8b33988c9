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
	"time"
)

// encoderReply is what the encoder writes for v, the bytes sendJobView
// must reproduce.
func encoderReply(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkEnvelope requires sendJobView's reply to be the encoder's bytes
// with their length, or — where the encoder fails — a 500 carrying its
// error.
func checkEnvelope(t *testing.T, v JobView) {
	t.Helper()
	rec := httptest.NewRecorder()
	sendJobView(rec, http.StatusOK, v)
	want, err := encoderReply(v)
	if err != nil {
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encode response") {
			t.Fatalf("encoder fails (%v), sendJobView answered %d %q", err, rec.Code, rec.Body)
		}
		return
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("sendJobView wrote %d\n%s\nthe encoder writes\n%s", rec.Code, rec.Body, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, len(want))
	}
	for _, s := range []string{v.ID, v.Kind, v.Key, string(v.Status), v.RequestID, v.Error} {
		for i := 0; i < len(s); i++ {
			if !plainByte(s[i]) {
				return // a string the encoder escapes: json.Unmarshal reads it
			}
		}
	}
	if nesting(v.Result) > maxScanDepth {
		return
	}
	got, ok := readJobView(want)
	if !ok {
		t.Fatalf("the hand reader refuses the reply\n%s", want)
	}
	var read JobView
	if err := json.Unmarshal(want, &read); err != nil || !reflect.DeepEqual(got, read) {
		t.Fatalf("the hand reader reads\n%s\nas %+v, json.Unmarshal as %+v (%v)", want, got, read, err)
	}
}

// nesting is the depth of arrays and objects in a valid JSON document.
func nesting(b []byte) int {
	deepest, depth, inString := 0, 0, false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case inString:
		case c == '{' || c == '[':
			depth++
			deepest = max(deepest, depth)
		case c == '}' || c == ']':
			depth--
		}
	}
	return deepest
}

// envelopeSeed is one seed of FuzzJobViewEnvelope's arguments.
type envelopeSeed struct {
	id, kind, key, status, rid, errMsg string
	result                             []byte
	flags                              uint8
	priority, workers                  int
	shards, waitMS, runMS              int64
	submitted, started, finished       int64
	zone                               int32
}

// envelopeSeeds seeds FuzzJobViewEnvelope and, rendered by appendJobView,
// FuzzDecodeJobView.
func envelopeSeeds() []envelopeSeed {
	key := strings.Repeat("ab", 32)
	now := time.Date(2026, 10, 17, 18, 0, 0, 123456789, time.UTC).UnixNano()
	return []envelopeSeed{
		{id: "j000001-abababab", kind: "grid", key: key, status: "done", rid: "feedfacecafe0001",
			result: []byte(`{"cells":[{"delivered":720}]}`), flags: 1, submitted: now, started: now, finished: now + 5e6, runMS: 5},
		{id: "j000002-abababab", kind: "grid", key: key, status: "failed", errMsg: "a <b> & c \u2028 d\"\\\n",
			result: []byte(`{"s":"\u003cx\u003e \u0026 \u2028"}`), submitted: now, zone: -7 * 3600},
		{id: "p1~j000003", kind: "sweep", status: "queued", result: nil, flags: 2 | 4, priority: -3, workers: 2, shards: 9},
		{id: "j4", kind: "rare", status: "running", result: []byte{}, submitted: now, started: now + 1e9, zone: 5*3600 + 30*60 + 15, waitMS: 1000},
		{id: "\xff\xfe", kind: "scénario", status: "canceled", errMsg: "\x00\x1f\x7f", result: []byte(`[1,2.5e-7,null,true]`)},
		{id: "j5", status: "done", result: []byte("\"<&>\u2028\"")}, // not in encoder form: skipped
		{id: "j6", status: "done", result: []byte(`{"a": 1}`)},
		{id: "j7", status: "done", submitted: now, zone: 25 * 3600}, // an offset RFC 3339 cannot express
		{id: "j8", status: "done", submitted: math.MaxInt64},
	}
}

// fuzzView assembles the job view FuzzJobViewEnvelope's arguments describe.
func fuzzView(id, kind, key, status, rid, errMsg string, result []byte, flags uint8,
	priority, workers int, shards, waitMS, runMS, submitted, started, finished int64, zone int32) JobView {
	loc := time.FixedZone("", int(zone))
	at := func(ns int64) time.Time {
		if ns == 0 {
			return time.Time{}
		}
		return time.Unix(0, ns).In(loc)
	}
	return JobView{
		ID: id, Kind: kind, Key: key, Status: Status(status),
		Cached: flags&1 != 0, Dedup: flags&2 != 0, PeerFetched: flags&4 != 0,
		RequestID: rid, Priority: priority, Workers: workers, ShardsDone: shards,
		Error: errMsg, Result: result,
		SubmittedAt: at(submitted), StartedAt: at(started), FinishedAt: at(finished),
		WaitMS: waitMS, RunMS: runMS,
	}
}

// (s envelopeSeed) view is fuzzView of the seed.
func (s envelopeSeed) view() JobView {
	return fuzzView(s.id, s.kind, s.key, s.status, s.rid, s.errMsg, s.result, s.flags, s.priority, s.workers,
		s.shards, s.waitMS, s.runMS, s.submitted, s.started, s.finished, s.zone)
}

// FuzzJobViewEnvelope holds sendJobView to the encoder: for any job view
// whose result is in encoder form — the only results the daemon holds —
// the reply is byte for byte what json.NewEncoder(w).Encode(v) writes.
// Where the view's strings are ones appendString copies verbatim, the
// hand reader must also take the reply, reading the view json.Unmarshal
// reads.
func FuzzJobViewEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds() {
		f.Add(s.id, s.kind, s.key, s.status, s.rid, s.errMsg, s.result, s.flags, s.priority, s.workers,
			s.shards, s.waitMS, s.runMS, s.submitted, s.started, s.finished, s.zone)
	}
	f.Fuzz(func(t *testing.T, id, kind, key, status, rid, errMsg string, result []byte, flags uint8,
		priority, workers int, shards, waitMS, runMS, submitted, started, finished int64, zone int32) {
		if len(result) > 0 && !encoderForm(result) {
			t.Skip("result not in encoder form")
		}
		checkEnvelope(t, fuzzView(id, kind, key, status, rid, errMsg, result, flags, priority, workers,
			shards, waitMS, runMS, submitted, started, finished, zone))
	})
}

// TestJobViewEnvelopeCoversEveryField sets every JobView field to a
// non-zero value, so a field added to JobView but not to appendJobView —
// or to appendJobView but not to the hand reader of DecodeJobView — fails
// here rather than going missing from replies.
func TestJobViewEnvelopeCoversEveryField(t *testing.T) {
	var v JobView
	rv := reflect.ValueOf(&v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Interface().(type) {
		case string, Status:
			f.SetString("x" + strconv.Itoa(i))
		case bool:
			f.SetBool(true)
		case int, int64:
			f.SetInt(int64(i + 1))
		case json.RawMessage:
			f.SetBytes([]byte(strconv.Itoa(i)))
		case time.Time:
			f.Set(reflect.ValueOf(time.Unix(int64(i), 7).UTC()))
		default:
			t.Fatalf("JobView.%s has type %s: teach appendJobView and this test about it",
				rv.Type().Field(i).Name, f.Type())
		}
	}
	checkEnvelope(t, v)
}

// TestWriteJSONEncodeError: a value the encoder cannot encode is answered
// 500 with the encoder's error, never a bodiless success.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var body apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError ||
		!strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("unencodable value: %d %q (%v)", rec.Code, rec.Body, err)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}

// decodeMatchesUnmarshal requires DecodeJobView to answer b exactly as
// json.Unmarshal does: the same view, result bytes included, and the
// same error.
func decodeMatchesUnmarshal(t *testing.T, b []byte) {
	t.Helper()
	got, gotErr := DecodeJobView(b)
	var want JobView
	wantErr := json.Unmarshal(b, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeJobView(%q) error %v, json.Unmarshal %v", b, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("DecodeJobView(%q) = %+v, json.Unmarshal %+v", b, got, want)
	}
}

// FuzzDecodeJobView holds DecodeJobView to json.Unmarshal on any body:
// wherever the hand reader takes a body, json.Unmarshal takes it too and
// reads the same view; every other body is json.Unmarshal's to answer.
func FuzzDecodeJobView(f *testing.F) {
	for _, s := range envelopeSeeds() {
		if b, ok := appendJobView(nil, s.view()); ok {
			f.Add(b)
		}
	}
	const head = `{"id":"j1","kind":"grid","key":"k","status":"done","cached":true`
	const times = `,"submitted_at":"2026-10-17T18:00:00.123456789Z","started_at":"0001-01-01T00:00:00Z","finished_at":"0001-01-01T00:00:00Z"`
	for _, b := range []string{
		head + `,"priority":01` + times + "}\n",
		head + `,"priority":1,"priority":2` + times + "}\n",
		head + times + "}\n{}",
		head + `,"result":{"a":tru}` + times + "}\n",
		head + `,"error":"a\nb"` + times + "}\n",
		`{"id":"j1","kind":"grid","key":"k","status":"done","cached":false` +
			`,"submitted_at":"2026-10-17T11:00:00.5-07:00","started_at":"0001-01-01T00:00:00Z","finished_at":"0001-01-01T00:00:00Z"}`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if v, ok := readJobView(b); ok {
			var want JobView
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatalf("the hand reader takes %q, json.Unmarshal refuses it: %v", b, err)
			}
			if !reflect.DeepEqual(v, want) || !bytes.Equal(v.Result, want.Result) {
				t.Fatalf("the hand reader reads %q as %+v, json.Unmarshal as %+v", b, v, want)
			}
		}
		decodeMatchesUnmarshal(t, b)
	})
}

// FuzzScanValue holds scanValue to json.Valid: what it finds is a valid
// value, and a valid compact document within maxScanDepth — every result
// in encoder form that deep, among them — is found whole.
func FuzzScanValue(f *testing.F) {
	for _, b := range []string{
		`{"cells":[{"delivered":720,"ber":1e-6,"fer":2.5E+3,"ok":true,"x":null}]}`,
		`{"a":tru}`, `[1,2,]`, `{"a":1,}`, `{"a" :1}`, `[ 1]`, `-0.5e-07`, `01`, `-`, `1.`, `1e`,
		`"é\n\/\"\\"`, `"\x"`, `"\u12g4"`, "\"\x01\"", "\"\xff\"", `{}`, `[]`, `"`, `{"a"}`,
		strings.Repeat("[", maxScanDepth) + strings.Repeat("]", maxScanDepth),
		strings.Repeat("[", maxScanDepth+1) + strings.Repeat("]", maxScanDepth+1),
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n := scanValue(b)
		if n >= 0 && !json.Valid(b[:n]) {
			t.Fatalf("scanValue(%q) = %d, but json.Valid refuses %q", b, n, b[:n])
		}
		var compact bytes.Buffer
		if json.Valid(b) && json.Compact(&compact, b) == nil && bytes.Equal(compact.Bytes(), b) &&
			nesting(b) <= maxScanDepth && n != len(b) {
			t.Fatalf("scanValue(%q) = %d on a valid compact document", b, n)
		}
	})
}

// TestDecodeJobViewFallbacks feeds one body per reason the hand reader
// refuses one, and requires each to come back exactly as json.Unmarshal
// returns it, value or error.
func TestDecodeJobViewFallbacks(t *testing.T) {
	head := `{"id":"j1","kind":"grid","key":"k","status":"done","cached":true`
	times := `,"submitted_at":"2026-10-17T18:00:00.123456789Z","started_at":"0001-01-01T00:00:00Z","finished_at":"0001-01-01T00:00:00Z"`
	canonical := head + `,"result":{"a":[1,"x"]}` + times + "}\n"
	if _, ok := readJobView([]byte(canonical)); !ok {
		t.Fatalf("the hand reader refuses the writer's own form %s", canonical)
	}
	deep := strings.Repeat("[", maxScanDepth+1) + strings.Repeat("]", maxScanDepth+1)
	for name, body := range map[string]string{
		"escaped string":   head + `,"error":"a\"b"` + times + "}\n",
		"non-ASCII string": head + `,"error":"é"` + times + "}\n",
		"whitespace":       head + `,"result":{"a": 1}` + times + "}\n",
		"space after key":  head + `, "result":1` + times + "}\n",
		"trailing bytes":   canonical + "{}",
		"trailing space":   canonical + " ",
		"invalid result":   head + `,"result":{"a":tru}` + times + "}\n",
		"too deep":         head + `,"result":` + deep + times + "}\n",
		"leading zero":     head + `,"priority":01` + times + "}\n",
		"omitted zero":     head + `,"workers":0` + times + "}\n",
		"false omitempty":  head + `,"dedup":false` + times + "}\n",
		"empty request id": head + `,"request_id":""` + times + "}\n",
		"repeated key":     head + `,"priority":1,"priority":2` + times + "}\n",
		"reordered keys":   `{"kind":"grid","id":"j1","key":"k","status":"done","cached":true` + times + "}\n",
		"20-digit integer": head + `,"run_ms":12345678901234567890` + times + "}\n",
		"bad time":         head + `,"submitted_at":"yesterday","started_at":"0001-01-01T00:00:00Z","finished_at":"0001-01-01T00:00:00Z"}`,
		"not an object":    `[1,2]`,
		"empty":            ``,
	} {
		t.Run(name, func(t *testing.T) {
			if _, ok := readJobView([]byte(body)); ok {
				t.Fatalf("the hand reader takes %s", body)
			}
			decodeMatchesUnmarshal(t, []byte(body))
		})
	}
}
