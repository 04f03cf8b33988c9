// Package trace is the replay-trace parser behind the trace-driven
// workload: it reads "src dst [count]" flow records from text that may
// come from outside the program, and bounds everything it accumulates.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// FlowRecord is one line of a replay trace: a (src,dst) node pair and the
// number of payloads offered on it.
type FlowRecord struct {
	Src, Dst int
	N        int
}

// Replay-trace size guards. Traces come from files (possibly attacker- or
// fuzzer-shaped), so the parser bounds everything it accumulates: records
// per trace, payloads per record, and bytes per line.
const (
	MaxReplayRecords = 1 << 16
	MaxReplayCount   = 1 << 20
	maxReplayLine    = 1 << 16
)

// ErrEmptyTrace is returned by ParseReplay for traces with no records.
var ErrEmptyTrace = errors.New("trace: replay trace has no records")

// ParseReplay reads a replay trace: one "src dst [count]" record per
// line, node IDs as decimal integers, count defaulting to 1. Blank lines
// and lines starting with '#' are ignored, as is a trailing '#' comment
// on a record line. Malformed input — non-integer fields, wrong field
// counts, negative IDs, non-positive counts, oversized traces — returns a
// descriptive error naming the offending line; the parser never panics.
//
// Interpretation of the node IDs (row-major grid position, arbitrary
// labels, …) is the caller's business: the parser only requires them
// non-negative, so one trace can replay onto any topology large enough
// to contain its IDs.
func ParseReplay(r io.Reader) ([]FlowRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 256), maxReplayLine)
	var recs []FlowRecord
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("trace: replay line %d: want \"src dst [count]\", got %d fields", lineNo, len(fields))
		}
		src, err := parseID(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: replay line %d: src: %v", lineNo, err)
		}
		dst, err := parseID(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: replay line %d: dst: %v", lineNo, err)
		}
		n := 1
		if len(fields) == 3 {
			n, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("trace: replay line %d: count %q is not an integer", lineNo, fields[2])
			}
			if n <= 0 {
				return nil, fmt.Errorf("trace: replay line %d: count %d is not positive", lineNo, n)
			}
			if n > MaxReplayCount {
				return nil, fmt.Errorf("trace: replay line %d: count %d exceeds limit %d", lineNo, n, MaxReplayCount)
			}
		}
		recs = append(recs, FlowRecord{Src: src, Dst: dst, N: n})
		if len(recs) > MaxReplayRecords {
			return nil, fmt.Errorf("trace: replay trace exceeds %d records", MaxReplayRecords)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: replay line %d: %v", lineNo+1, err)
	}
	if len(recs) == 0 {
		return nil, ErrEmptyTrace
	}
	return recs, nil
}

// ParseReplayString parses an in-memory replay trace.
func ParseReplayString(s string) ([]FlowRecord, error) {
	return ParseReplay(strings.NewReader(s))
}

func parseID(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("node ID %q is not an integer", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("node ID %d is negative", v)
	}
	return v, nil
}
