package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// WriteJSON writes compact JSON — the response encoder of the daemon and
// the fleet front for every document but a job view (WriteJobView).
// Compactness matters beyond bytes on the wire: result documents are
// stored and served as raw messages, and an indenting encoder would
// reformat them — breaking the byte-identity between cached, uncached,
// and direct library runs that the cache's whole design guarantees. The
// value is encoded before anything is sent, so a value that cannot be
// encoded is answered 500 with the encoder's error, never a bodiless
// success.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(apiError{Error: "encode response: " + err.Error()})
	}
	writeBody(w, status, append(b, '\n'))
}

// WriteError answers with the uniform error body {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, apiError{Error: msg})
}

// writeBody sends an encoded JSON reply with its length.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b)
}

// WriteJobView writes a job view — the submit reply, GET and DELETE of a
// job, on the daemon and through the fleet front — as exactly the bytes
// json.NewEncoder(w).Encode(v) writes, newline included. It renders the
// small fields around the result itself and copies v.Result in verbatim
// instead of letting the encoder re-compact it, so a cache hit's reply
// is a copy of the cached bytes.
//
// That is sound because every result the daemon holds is already in
// encoder form (encoderForm): engine results are json.Marshal output,
// spill files are verified against the digest they were written under,
// and peer-fetched bytes are checked before they are cached. The front
// relays results its members wrote, which are in encoder form for the
// same reasons. FuzzJobViewEnvelope holds the equality.
func WriteJobView(w http.ResponseWriter, status int, v JobView) {
	b, ok := appendJobView(make([]byte, 0, 512+len(v.Result)), v)
	if !ok {
		// A time the encoder refuses: let it answer with its own error.
		WriteJSON(w, status, v)
		return
	}
	writeBody(w, status, b)
}

// appendJobView appends v's encoder rendering, field for field in
// JobView's declaration order with its omitempty rules. ok is false when
// a timestamp cannot be encoded (see appendTime).
func appendJobView(b []byte, v JobView) ([]byte, bool) {
	b = append(b, `{"id":`...)
	b = appendString(b, v.ID)
	b = append(b, `,"kind":`...)
	b = appendString(b, v.Kind)
	b = append(b, `,"key":`...)
	b = appendString(b, v.Key)
	b = append(b, `,"status":`...)
	b = appendString(b, string(v.Status))
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, v.Cached)
	if v.Dedup {
		b = append(b, `,"dedup":true`...)
	}
	if v.PeerFetched {
		b = append(b, `,"peer_fetched":true`...)
	}
	if v.RequestID != "" {
		b = append(b, `,"request_id":`...)
		b = appendString(b, v.RequestID)
	}
	b = appendNonZero(b, `,"priority":`, int64(v.Priority))
	b = appendNonZero(b, `,"workers":`, int64(v.Workers))
	b = appendNonZero(b, `,"shards_done":`, v.ShardsDone)
	if v.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, v.Error)
	}
	if len(v.Result) > 0 {
		b = append(b, `,"result":`...)
		b = append(b, v.Result...)
	}
	b, ok1 := appendTime(append(b, `,"submitted_at":`...), v.SubmittedAt)
	b, ok2 := appendTime(append(b, `,"started_at":`...), v.StartedAt)
	b, ok3 := appendTime(append(b, `,"finished_at":`...), v.FinishedAt)
	b = appendNonZero(b, `,"wait_ms":`, v.WaitMS)
	b = appendNonZero(b, `,"run_ms":`, v.RunMS)
	return append(b, "}\n"...), ok1 && ok2 && ok3
}

// appendNonZero appends an omitempty integer field: name and n, unless n
// is zero.
func appendNonZero(b []byte, name string, n int64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, name...), n, 10)
}

// appendString appends s quoted as the encoder quotes it. A string of
// printable ASCII with nothing to escape — every ID, key, kind, status
// and request ID the daemon mints — is copied between quotes; anything
// else (control bytes, quotes, backslashes, the HTML-escaped <, > and &,
// non-ASCII) is quoted by the encoder itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendTime appends t as (time.Time).MarshalJSON renders it: quoted
// RFC 3339 with nanoseconds. ok is false where MarshalJSON fails — a year
// outside [0,9999] or a zone offset of 24 hours or more, which RFC 3339
// cannot express — checked the way MarshalJSON checks.
func appendTime(b []byte, t time.Time) (_ []byte, ok bool) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	ts := b[n0:]
	if ts[len("9999")] != '-' {
		return b, false
	}
	if ts[len(ts)-1] != 'Z' {
		c := ts[len(ts)-len("Z07:00")]
		hh := 10*(ts[len(ts)-len("07:00")]-'0') + (ts[len(ts)-len("7:00")] - '0')
		if '0' <= c && c <= '9' || hh >= 24 {
			return b, false
		}
	}
	return append(b, '"'), true
}

// encoderForm reports whether b is a JSON document exactly as the
// encoder writes a raw message — json.Marshal(json.RawMessage(b)) is b:
// valid, compact, with <, >, & and U+2028/U+2029 escaped. Only such
// bytes may enter the cache, because WriteJobView copies cached bytes
// into replies verbatim.
func encoderForm(b []byte) bool {
	m, err := json.Marshal(json.RawMessage(b))
	return err == nil && bytes.Equal(m, b)
}
