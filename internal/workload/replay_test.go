package workload

import (
	"errors"
	"strings"
	"testing"
)

func TestParseReplay(t *testing.T) {
	recs, err := parseReplay(`
# AI training shard: hot parameter server at node 0
1 0 40
2 0 40
3 0     # dominant reducer, default count
0 3 5
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []flowRecord{{1, 0, 40}, {2, 0, 40}, {3, 0, 1}, {0, 3, 5}}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestParseReplayErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty", "", "no records"},
		{"comments only", "# nothing\n\n  \n", "no records"},
		{"one field", "3\n", "fields"},
		{"four fields", "1 2 3 4\n", "fields"},
		{"bad src", "x 2\n", "src"},
		{"bad dst", "1 y\n", "dst"},
		{"negative id", "-1 2\n", "negative"},
		{"bad count", "1 2 many\n", "not an integer"},
		{"zero count", "1 2 0\n", "not positive"},
		{"negative count", "1 2 -5\n", "not positive"},
		{"huge count", "1 2 99999999\n", "exceeds"},
		{"float id", "1.5 2\n", "not an integer"},
		{"hex id", "0x10 2\n", "not an integer"},
		{"line number", "1 2\nbroken\n", "line 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseReplay(c.in)
			if err == nil {
				t.Fatalf("parsed %q without error", c.in)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}

	if _, err := parseReplay("# only\n"); !errors.Is(err, errEmptyTrace) {
		t.Errorf("empty trace error = %v, want errEmptyTrace", err)
	}
}

func TestParseReplayOversized(t *testing.T) {
	var sb strings.Builder
	for i := 0; i <= maxReplayRecords; i++ {
		sb.WriteString("1 2\n")
	}
	if _, err := parseReplay(sb.String()); err == nil || !strings.Contains(err.Error(), "records") {
		t.Errorf("oversized trace error = %v", err)
	}

	// A single line longer than the scanner buffer errors instead of
	// silently truncating.
	long := "1 2 " + strings.Repeat("9", maxReplayLine)
	if _, err := parseReplay(long); err == nil {
		t.Error("overlong line parsed without error")
	}
}

// FuzzParseReplay asserts the malformed-trace contract: arbitrary input
// either parses into in-bounds records or returns an error — never a
// panic, never out-of-contract values.
func FuzzParseReplay(f *testing.F) {
	f.Add("1 2 3\n")
	f.Add("# comment\n0 0\n")
	f.Add("1 2\n3 4 5\n")
	f.Add("255 0 1048576\n")
	f.Add("-1 2\n")
	f.Add("1 2 0\n")
	f.Add("a b c\n")
	f.Add("1\t2\t3 # trailing\n")
	f.Add("9999999999999999999 2\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := parseReplay(in)
		if err != nil {
			if recs != nil {
				t.Fatal("error with non-nil records")
			}
			return
		}
		if len(recs) == 0 || len(recs) > maxReplayRecords {
			t.Fatalf("parsed %d records outside contract", len(recs))
		}
		for _, r := range recs {
			if r.Src < 0 || r.Dst < 0 || r.N <= 0 || r.N > maxReplayCount {
				t.Fatalf("out-of-contract record %+v", r)
			}
		}
	})
}
