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
// the fleet front for every document but a job view (sendJobView).
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

// sendJobView writes a job view — the daemon's submit reply and its GET
// and DELETE of a job — as exactly the bytes json.NewEncoder(w).Encode(v)
// writes, newline included. It renders the small fields around the
// result itself and copies v.Result in verbatim instead of letting the
// encoder re-compact it, so a cache hit's reply is a copy of the cached
// bytes. The ID is the first field, so the fleet front can relay the
// reply with its handle prefix spliced in front of the ID.
//
// That is sound because every result the daemon holds is already in
// encoder form (encoderForm): engine results are json.Marshal output,
// spill files are verified against the digest they were written under,
// and peer-fetched bytes are checked before they are cached.
// FuzzJobViewEnvelope holds the equality.
func sendJobView(w http.ResponseWriter, status int, v JobView) {
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

// DecodeJobView decodes a job view reply, the bytes sendJobView writes.
// It reads the writer's own form by hand, mirroring appendJobView: fields
// in JobView's declaration order under its omitempty rules, strings in
// appendString's verbatim case, integers in JSON grammar (non-zero where
// the field is omitempty), times through (time.Time).UnmarshalJSON, the
// result through one strict pass of scanValue, then "}" and an optional
// newline with nothing after. Any other body goes to json.Unmarshal,
// which returns the values and errors it always has: FuzzDecodeJobView
// holds the two paths equal wherever the hand reader answers.
//
// Where the hand reader answers, the view's Result points into b rather
// than into a copy, so b must not be reused while the view is live.
func DecodeJobView(b []byte) (JobView, error) {
	if v, ok := readJobView(b); ok {
		return v, nil
	}
	var v JobView
	err := json.Unmarshal(b, &v)
	return v, err
}

// readJobView is DecodeJobView's hand reader; ok is false as soon as the
// body departs from what appendJobView writes.
func readJobView(b []byte) (v JobView, ok bool) {
	r := viewReader{b: b}
	r.expect(`{"id":`)
	v.ID = r.str()
	r.expect(`,"kind":`)
	v.Kind = r.str()
	r.expect(`,"key":`)
	v.Key = r.str()
	r.expect(`,"status":`)
	v.Status = Status(r.str())
	r.expect(`,"cached":`)
	v.Cached = r.bool()
	v.Dedup = r.skip(`,"dedup":true`)
	v.PeerFetched = r.skip(`,"peer_fetched":true`)
	v.RequestID = r.optStr(`,"request_id":`)
	v.Priority = r.optInt(`,"priority":`)
	v.Workers = r.optInt(`,"workers":`)
	v.ShardsDone = r.optInt64(`,"shards_done":`)
	v.Error = r.optStr(`,"error":`)
	if r.skip(`,"result":`) {
		v.Result = r.value()
	}
	r.expect(`,"submitted_at":`)
	v.SubmittedAt = r.time()
	r.expect(`,"started_at":`)
	v.StartedAt = r.time()
	r.expect(`,"finished_at":`)
	v.FinishedAt = r.time()
	v.WaitMS = r.optInt64(`,"wait_ms":`)
	v.RunMS = r.optInt64(`,"run_ms":`)
	r.expect("}")
	r.skip("\n")
	return v, !r.bad && len(r.b) == 0
}

// viewReader is readJobView's cursor: b is what is left of the body, and
// bad, once set, makes every further read a no-op returning zero.
type viewReader struct {
	b   []byte
	bad bool
}

// skip consumes lit if the body continues with it.
func (r *viewReader) skip(lit string) bool {
	if r.bad || len(r.b) < len(lit) || string(r.b[:len(lit)]) != lit {
		return false
	}
	r.b = r.b[len(lit):]
	return true
}

// expect consumes lit, which the body must continue with.
func (r *viewReader) expect(lit string) {
	if !r.skip(lit) {
		r.bad = true
	}
}

// quoted returns the length of the quoted string at the head of the body,
// quotes included, if it is one appendString copies verbatim; else 0.
func (r *viewReader) quoted() int {
	if r.bad || len(r.b) == 0 || r.b[0] != '"' {
		return 0
	}
	for i := 1; i < len(r.b); i++ {
		if c := r.b[i]; c == '"' {
			return i + 1
		} else if !plainByte(c) {
			return 0
		}
	}
	return 0
}

// str reads a string appendString writes verbatim.
func (r *viewReader) str() string {
	n := r.quoted()
	if n == 0 {
		r.bad = true
		return ""
	}
	s := string(r.b[1 : n-1])
	r.b = r.b[n:]
	return s
}

// optStr reads an omitempty string field: absent, or non-empty.
func (r *viewReader) optStr(name string) string {
	if !r.skip(name) {
		return ""
	}
	s := r.str()
	if s == "" {
		r.bad = true
	}
	return s
}

// optInt64 reads an omitempty integer field: absent, or a non-zero
// integer.
func (r *viewReader) optInt64(name string) int64 {
	if !r.skip(name) {
		return 0
	}
	n := r.int64()
	if n == 0 {
		r.bad = true
	}
	return n
}

// optInt is optInt64 for an int field.
func (r *viewReader) optInt(name string) int {
	n := r.optInt64(name)
	if int64(int(n)) != n {
		r.bad = true
	}
	return int(n)
}

// number consumes the number at the head of the body, in JSON grammar.
func (r *viewReader) number() []byte {
	if r.bad || len(r.b) == 0 {
		r.bad = true
		return nil
	}
	n := scanNumber(r.b, 0)
	if n < 0 {
		r.bad = true
		return nil
	}
	lit := r.b[:n]
	r.b = r.b[n:]
	return lit
}

// int64 reads an integer as json.Unmarshal does, through strconv.ParseInt
// of the number's literal: a fraction, an exponent or an out-of-range
// value is not one.
func (r *viewReader) int64() int64 {
	n, err := strconv.ParseInt(string(r.number()), 10, 64)
	if err != nil {
		r.bad = true
	}
	return n
}

// bool reads true or false.
func (r *viewReader) bool() bool {
	if r.skip("true") {
		return true
	}
	r.expect("false")
	return false
}

// time reads a timestamp as json.Unmarshal does, through UnmarshalJSON.
func (r *viewReader) time() (t time.Time) {
	n := r.quoted()
	if n == 0 || t.UnmarshalJSON(r.b[:n]) != nil {
		r.bad = true
		return time.Time{}
	}
	r.b = r.b[n:]
	return t
}

// value reads the compact JSON value at the head of the body, returning
// it in place.
func (r *viewReader) value() json.RawMessage {
	if r.bad {
		return nil
	}
	n := scanValue(r.b)
	if n < 0 {
		r.bad = true
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
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
		if !plainByte(s[i]) {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainByte reports whether the encoder copies c into a quoted string as
// it is: an ASCII byte from the space up, other than the quote, the
// backslash and the HTML-escaped <, > and &.
func plainByte(c byte) bool {
	return 0x20 <= c && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
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
// bytes may enter the cache, because sendJobView copies cached bytes
// into replies verbatim.
func encoderForm(b []byte) bool {
	m, err := json.Marshal(json.RawMessage(b))
	return err == nil && bytes.Equal(m, b)
}

// maxScanDepth bounds the nesting scanValue follows. Results are a few
// levels deep; a deeper one sends its reply to json.Unmarshal.
const maxScanDepth = 64

// scanValue returns the length of the JSON value at the head of b, or -1
// if there is none it accepts. It is one strict pass that both finds the
// value's end and validates it: b[:n] is a value json.Valid accepts, and
// every compact value json.Valid accepts is found whole. It accepts no
// whitespace outside strings and no nesting deeper than maxScanDepth.
func scanValue(b []byte) int {
	return scanFrom(b, 0, 0)
}

// scanFrom returns the index just past the value that starts at b[i], or
// -1; depth is the nesting of the arrays and objects around it.
func scanFrom(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; {
	case c == '"':
		return scanString(b, i)
	case c == '-' || '0' <= c && c <= '9':
		return scanNumber(b, i)
	case c == 't':
		return scanLiteral(b, i, "true")
	case c == 'f':
		return scanLiteral(b, i, "false")
	case c == 'n':
		return scanLiteral(b, i, "null")
	case depth == maxScanDepth:
		return -1
	case c == '{':
		if i++; i < len(b) && b[i] == '}' {
			return i + 1
		}
		for {
			if i = scanString(b, i); i < 0 || i >= len(b) || b[i] != ':' {
				return -1
			}
			if i = scanFrom(b, i+1, depth+1); i < 0 || i >= len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i++
			case '}':
				return i + 1
			default:
				return -1
			}
		}
	case c == '[':
		if i++; i < len(b) && b[i] == ']' {
			return i + 1
		}
		for {
			if i = scanFrom(b, i, depth+1); i < 0 || i >= len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i++
			case ']':
				return i + 1
			default:
				return -1
			}
		}
	}
	return -1
}

// scanString returns the index just past the string that starts at b[i],
// or -1: an unterminated string, a control byte, or a bad escape.
func scanString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; ; i++ {
		for i < len(b) && stringByte[b[i]] {
			i++
		}
		if i == len(b) {
			return -1
		}
		switch b[i] {
		case '"':
			return i + 1
		case '\\':
			if i++; i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b) < i+5 {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		default: // a control byte
			return -1
		}
	}
}

// stringByte[c] reports whether c stands for itself inside a JSON string:
// any byte but a control byte, the quote and the backslash.
var stringByte = func() (t [256]bool) {
	for c := 0x20; c < len(t); c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanNumber returns the index just past the number that starts at b[i]
// in JSON grammar, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or -1.
func scanNumber(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = scanDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if j := scanDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := scanDigits(b, i); j > i {
			i = j
		} else {
			return -1
		}
	}
	return i
}

// scanDigits returns the index of the first non-digit at or after b[i].
func scanDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanLiteral returns the index just past lit at b[i], or -1.
func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}
