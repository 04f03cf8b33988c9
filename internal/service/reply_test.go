package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// encoderReply is what the encoder writes for v, the bytes WriteJobView
// must reproduce.
func encoderReply(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkEnvelope requires WriteJobView's reply to be the encoder's bytes
// with their length, or — where the encoder fails — a 500 carrying its
// error.
func checkEnvelope(t *testing.T, v JobView) {
	t.Helper()
	rec := httptest.NewRecorder()
	WriteJobView(rec, http.StatusOK, v)
	want, err := encoderReply(v)
	if err != nil {
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encode response") {
			t.Fatalf("encoder fails (%v), WriteJobView answered %d %q", err, rec.Code, rec.Body)
		}
		return
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("WriteJobView wrote %d\n%s\nthe encoder writes\n%s", rec.Code, rec.Body, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, len(want))
	}
}

// FuzzJobViewEnvelope holds WriteJobView to the encoder: for any job view
// whose result is in encoder form — the only results the daemon holds —
// the reply is byte for byte what json.NewEncoder(w).Encode(v) writes.
func FuzzJobViewEnvelope(f *testing.F) {
	type seed struct {
		id, kind, key, status, rid, errMsg string
		result                             []byte
		flags                              uint8
		priority, workers                  int
		shards, waitMS, runMS              int64
		submitted, started, finished       int64
		zone                               int32
	}
	key := strings.Repeat("ab", 32)
	now := time.Date(2026, 10, 17, 18, 0, 0, 123456789, time.UTC).UnixNano()
	for _, s := range []seed{
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
	} {
		f.Add(s.id, s.kind, s.key, s.status, s.rid, s.errMsg, s.result, s.flags, s.priority, s.workers,
			s.shards, s.waitMS, s.runMS, s.submitted, s.started, s.finished, s.zone)
	}
	f.Fuzz(func(t *testing.T, id, kind, key, status, rid, errMsg string, result []byte, flags uint8,
		priority, workers int, shards, waitMS, runMS, submitted, started, finished int64, zone int32) {
		if len(result) > 0 && !encoderForm(result) {
			t.Skip("result not in encoder form")
		}
		loc := time.FixedZone("", int(zone))
		at := func(ns int64) time.Time {
			if ns == 0 {
				return time.Time{}
			}
			return time.Unix(0, ns).In(loc)
		}
		checkEnvelope(t, JobView{
			ID: id, Kind: kind, Key: key, Status: Status(status),
			Cached: flags&1 != 0, Dedup: flags&2 != 0, PeerFetched: flags&4 != 0,
			RequestID: rid, Priority: priority, Workers: workers, ShardsDone: shards,
			Error: errMsg, Result: result,
			SubmittedAt: at(submitted), StartedAt: at(started), FinishedAt: at(finished),
			WaitMS: waitMS, RunMS: runMS,
		})
	})
}

// TestJobViewEnvelopeCoversEveryField sets every JobView field to a
// non-zero value, so a field added to JobView but not to appendJobView
// fails here rather than going missing from replies.
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
