package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a series name, its labels, and
// the value. Histogram series appear as their rendered parts
// (name_bucket with an le label, name_sum, name_count).
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns a label value ("" when absent).
func (s Sample) Label(k string) string { return s.Labels[k] }

// ParsePrometheus parses text exposition format back into samples — the
// inverse of WritePrometheus, used by scrapers (cmd/rxltop) that
// reconstruct gauges and histograms from a live /metrics endpoint.
// Comment and blank lines are skipped; malformed lines are an error, so
// a scraper never silently renders garbage.
func ParsePrometheus(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		s.Name = rest[:i]
		end := strings.LastIndex(rest, "}")
		if end < i {
			return s, fmt.Errorf("obs: unterminated labels: %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, fmt.Errorf("obs: %v in %q", err, line)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("obs: malformed sample line: %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("obs: bad value in %q: %v", line, err)
	}
	s.Value = v
	if !validName(s.Name, true) {
		return s, fmt.Errorf("obs: bad metric name: %q", line)
	}
	return s, nil
}

// validName reports whether s is a legal exposition-format identifier:
// [a-zA-Z_][a-zA-Z0-9_]*, with ':' also allowed in metric names.
func validName(s string, metric bool) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':' && metric:
		case '0' <= c && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return s != ""
}

// parseLabels parses `k="v",k2="v2"` with the exposition escapes
// (backslash, quote, newline) undone.
func parseLabels(in string, into map[string]string) error {
	for len(in) > 0 {
		eq := strings.Index(in, "=")
		if eq < 0 {
			return fmt.Errorf("label without value")
		}
		key := strings.TrimSpace(in[:eq])
		if !validName(key, false) {
			return fmt.Errorf("bad label name %q", key)
		}
		in = in[eq+1:]
		if len(in) == 0 || in[0] != '"' {
			return fmt.Errorf("unquoted label value")
		}
		in = in[1:]
		var sb strings.Builder
		i := 0
		for ; i < len(in); i++ {
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				i++
				switch in[i] {
				case 'n':
					sb.WriteByte('\n')
				case '\\', '"':
					sb.WriteByte(in[i])
				default:
					return fmt.Errorf("bad escape \\%c", in[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
		}
		if i >= len(in) {
			return fmt.Errorf("unterminated label value")
		}
		into[key] = sb.String()
		in = strings.TrimSpace(in[i+1:])
		if in != "" && in[0] != ',' {
			return fmt.Errorf("junk after label %q", key)
		}
		in = strings.TrimSpace(strings.TrimPrefix(in, ","))
	}
	return nil
}

// SumSamples adds the values of every sample matching name (and, when
// given, all of the label pairs) — how a scraper folds per-outcome or
// per-peer series into a total.
func SumSamples(samples []Sample, name string, labelPairs ...string) float64 {
	var sum float64
	for _, s := range samples {
		if s.Name != name || !matchLabels(s, labelPairs) {
			continue
		}
		sum += s.Value
	}
	return sum
}

func matchLabels(s Sample, pairs []string) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if s.Labels[pairs[i]] != pairs[i+1] {
			return false
		}
	}
	return true
}

// RebuildHistogram reconstructs cumulative buckets from parsed
// name_bucket samples, summing across series that differ in labels
// other than le (e.g. folding the per-outcome request histograms into
// one). The returned bounds exclude +Inf; cum has one extra entry for
// it — exactly the shape CumulativeQuantile takes.
func RebuildHistogram(samples []Sample, name string) (bounds []float64, cum []uint64) {
	byLE := map[float64]float64{}
	hasInf := false
	for _, s := range samples {
		if s.Name != name+"_bucket" {
			continue
		}
		le := s.Label("le")
		if le == "+Inf" {
			hasInf = true
			byLE[inf] += s.Value
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		byLE[b] += s.Value
	}
	if len(byLE) == 0 || !hasInf {
		return nil, nil
	}
	for b := range byLE {
		if b != inf {
			bounds = append(bounds, b)
		}
	}
	sort.Float64s(bounds)
	for _, b := range bounds {
		cum = append(cum, uint64(byLE[b]))
	}
	cum = append(cum, uint64(byLE[inf]))
	return bounds, cum
}

// inf is the +Inf bucket's map key.
var inf = func() float64 {
	v, _ := strconv.ParseFloat("+Inf", 64)
	return v
}()
