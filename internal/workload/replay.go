package workload

import (
	"bufio"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// flowRecord is one line of a replay trace: a (src,dst) node pair and the
// number of payloads offered on it.
type flowRecord struct {
	Src, Dst int
	N        int
}

// Replay-trace size guards. Traces come from job specs (possibly attacker-
// or fuzzer-shaped), so the parser bounds everything it accumulates:
// records per trace, payloads per record, and bytes per line.
const (
	maxReplayRecords = 1 << 16
	maxReplayCount   = 1 << 20
	maxReplayLine    = 1 << 16
)

// errEmptyTrace is returned by parseReplay for traces with no records.
var errEmptyTrace = errors.New("workload: replay trace has no records")

// parseReplay reads a replay trace: one "src dst [count]" record per line,
// node IDs as decimal integers, count defaulting to 1. Blank lines and
// lines starting with '#' are ignored, as is a trailing '#' comment on a
// record line. Malformed input — non-integer fields, wrong field counts,
// negative IDs, non-positive counts, oversized traces — returns a
// descriptive error naming the offending line; the parser never panics.
//
// The node IDs are row-major grid positions, interpreted by Generate
// against the fabric geometry: the parser only requires them
// non-negative, so one trace can replay onto any topology large enough to
// contain its IDs.
func parseReplay(s string) ([]flowRecord, error) {
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 0, 256), maxReplayLine)
	var recs []flowRecord
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
			return nil, fmt.Errorf("workload: replay line %d: want \"src dst [count]\", got %d fields", lineNo, len(fields))
		}
		src, err := parseID(fields[0])
		if err != nil {
			return nil, fmt.Errorf("workload: replay line %d: src: %v", lineNo, err)
		}
		dst, err := parseID(fields[1])
		if err != nil {
			return nil, fmt.Errorf("workload: replay line %d: dst: %v", lineNo, err)
		}
		n := 1
		if len(fields) == 3 {
			n, err = strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("workload: replay line %d: count %q is not an integer", lineNo, fields[2])
			}
			if n <= 0 {
				return nil, fmt.Errorf("workload: replay line %d: count %d is not positive", lineNo, n)
			}
			if n > maxReplayCount {
				return nil, fmt.Errorf("workload: replay line %d: count %d exceeds limit %d", lineNo, n, maxReplayCount)
			}
		}
		recs = append(recs, flowRecord{Src: src, Dst: dst, N: n})
		if len(recs) > maxReplayRecords {
			return nil, fmt.Errorf("workload: replay trace exceeds %d records", maxReplayRecords)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: replay line %d: %v", lineNo+1, err)
	}
	if len(recs) == 0 {
		return nil, errEmptyTrace
	}
	return recs, nil
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
