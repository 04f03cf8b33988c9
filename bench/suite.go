package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/crc"
)

// hostBlock says what the numbers were measured on. Two results are
// comparable only when the kernel dispatch, the core count in use, the
// workload sizes and the seed match.
type hostBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	CLMUL      bool    `json:"crc_clmul"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Seed       uint64  `json:"seed"`
}

func host(e *env) hostBlock {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return hostBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpu, Go: runtime.Version(),
		CLMUL: crc.UsingCLMUL(), Scale: e.scale, Seconds: e.seconds, Seed: e.seed,
	}
}

// probeSection is where the suite files the layer probes: they do not
// depend on the workload, so the values of all traced runs are pooled
// there instead of being repeated under each workload.
const probeSection = "probes"

// sections are the blocks of the table: the workloads, then the probes.
func sections() []string {
	var out []string
	for _, wd := range workloadDecls {
		out = append(out, wd.name)
	}
	return append(out, probeSection)
}

// inSection reports whether metric m is listed under section sec.
func (m metric) inSection(sec string) bool {
	if sec == probeSection {
		return m.probe()
	}
	return !m.probe() && m.measuredOn(sec)
}

// suiteResult is bench/out/result.json: per section and metric, one value
// per set (-repeat K gives K; the probes get one per traced run).
type suiteResult struct {
	Host     hostBlock               `json:"host"`
	Sets     int                     `json:"sets"`
	Sections map[string]*sectionRuns `json:"sections"`
}

type sectionRuns struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]*valueSet `json:"metrics"`
}

type valueSet struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// child re-executes this binary for one workload, so every workload
// starts on a fresh heap and peak_rss_mb is its own.
func child(e *env, workload string, trace int) (result, error) {
	cmd := exec.Command(os.Args[0],
		"-workload", workload, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatUint(e.seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(e.scale, 'g', -1, 64),
		"-out", e.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var r result
	// A failed check exits 1 but still prints its result.
	if lines := bytes.Split(bytes.TrimSpace(out), []byte("\n")); len(out) > 0 {
		if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr == nil {
			return r, nil
		}
	}
	if err == nil {
		err = fmt.Errorf("no result line")
	}
	return r, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
}

// runSuite runs every workload untraced, then traced, `sets` times over;
// prints the table and writes result.json. The exit code is 1 when any
// output check failed or, with several sets, when they disagree.
func runSuite(e *env, sets int) int {
	res := suiteResult{Host: host(e), Sets: sets, Sections: map[string]*sectionRuns{}}
	for _, sec := range sections() {
		res.Sections[sec] = &sectionRuns{Metrics: map[string]*valueSet{}}
	}
	probes := map[string]bool{}
	for _, m := range perLayer {
		probes[m.name] = m.probe()
	}
	for set := 0; set < sets; set++ {
		for _, wd := range workloadDecls {
			wr := res.Sections[wd.name]
			for trace := 0; trace <= 1; trace++ {
				fmt.Fprintf(os.Stderr, "bench: set %d/%d %s trace=%d\n", set+1, sets, wd.name, trace)
				r, err := child(e, wd.name, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				wr.Attempted += r.Attempted
				wr.Failed += r.Failed
				for name, v := range r.Metrics {
					into := wr.Metrics
					if probes[name] {
						into = res.Sections[probeSection].Metrics
					}
					if into[name] == nil {
						into[name] = &valueSet{Unit: v.Unit}
					}
					into[name].Values = append(into[name].Values, v.Value)
				}
			}
		}
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(e.outDir, "result.json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return printSuite(res)
}

// printSuite renders the table: per workload every metric measured on it,
// its median and, with several sets, its quartile spread and whether the
// sets agree — within the bound for an end-to-end metric, bit for bit for
// an exact one.
func printSuite(res suiteResult) int {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	h := res.Host
	fmt.Fprintf(w, "host: %s, %d cpus, GOMAXPROCS %d, %s, crc clmul=%v; seed %d, scale %g, %g s/run, %d set(s)\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.CLMUL, h.Seed, h.Scale, h.Seconds, res.Sets)
	exit := 0
	for _, sec := range sections() {
		wr := res.Sections[sec]
		if sec == probeSection {
			fmt.Fprintf(w, "\n%s  (every traced run, pooled)\n", sec)
		} else {
			fmt.Fprintf(w, "\n%s  (checks: %d attempted, %d failed)\n", sec, wr.Attempted, wr.Failed)
		}
		if wr.Failed > 0 {
			exit = 1
		}
		for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
			vs := wr.Metrics[m.name]
			if vs == nil || !m.inSection(sec) {
				continue
			}
			line := fmt.Sprintf("  %-32s %14.6g %-8s", m.name, median(vs.Values), m.unit)
			if res.Sets > 1 {
				verdict := ""
				switch {
				case m.bound > 0 && spread(vs.Values) > m.bound:
					verdict, exit = "DISAGREE (spread over bound)", 1
				case m.bound > 0:
					verdict = "agree"
				case m.exact && !allEqual(vs.Values):
					verdict, exit = "DISAGREE (exact metric differs)", 1
				case m.exact:
					verdict = "identical"
				}
				line += fmt.Sprintf(" q1 %-12.6g q3 %-12.6g spread %5.1f%%  %s",
					percentile(vs.Values, 0.25), percentile(vs.Values, 0.75), 100*spread(vs.Values), verdict)
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
	return exit
}

func allEqual(vs []float64) bool {
	for _, v := range vs {
		if v != vs[0] {
			return false
		}
	}
	return true
}

// compareFiles prints parent-vs-change rows for every end-to-end metric
// and workload: both medians, their ratio with its base, and a verdict.
// A metric whose own spread exceeds its bound on either side is
// unresolved, not unchanged. Results from different kernel dispatch,
// GOMAXPROCS, scale, window or seed are refused.
func compareFiles(parentPath, changePath string) int {
	load := func(path string) (suiteResult, error) {
		var r suiteResult
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &r)
		}
		return r, err
	}
	parent, err := load(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	change, err := load(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	p, c := parent.Host, change.Host
	if p.CLMUL != c.CLMUL || p.GOMAXPROCS != c.GOMAXPROCS || p.Scale != c.Scale || p.Seconds != c.Seconds || p.Seed != c.Seed {
		fmt.Fprintf(os.Stderr, "bench: results are not comparable: parent %+v, change %+v\n", p, c)
		return 2
	}
	exit := 0
	fmt.Printf("%-15s %-32s %14s %14s %8s  %s\n", "workload", "metric", "parent", "change", "ratio", "verdict (ratio = change/parent)")
	for _, sec := range sections() {
		pw, cw := parent.Sections[sec], change.Sections[sec]
		if pw == nil || cw == nil {
			continue
		}
		if cw.Failed > pw.Failed {
			fmt.Printf("%-15s more failed checks: %d, parent %d\n", sec, cw.Failed, pw.Failed)
			exit = 1
		}
		for _, m := range endToEnd {
			pv, cv := pw.Metrics[m.name], cw.Metrics[m.name]
			if pv == nil || cv == nil || !m.inSection(sec) {
				continue
			}
			pm, cm := median(pv.Values), median(cv.Values)
			worse := cm/pm - 1 // as a share of the parent's median
			if m.better == "higher" {
				worse = 1 - cm/pm
			}
			verdict := "within bound"
			switch {
			case spread(pv.Values) > m.bound || spread(cv.Values) > m.bound:
				verdict = fmt.Sprintf("unresolved (spread parent %.1f%%, change %.1f%%, bound %.0f%%)",
					100*spread(pv.Values), 100*spread(cv.Values), 100*m.bound)
			case worse > m.bound:
				verdict, exit = fmt.Sprintf("REGRESSED by %.1f%% (bound %.0f%%)", 100*worse, 100*m.bound), 1
			case worse < -m.bound:
				verdict = fmt.Sprintf("better by %.1f%%", -100*worse)
			}
			fmt.Printf("%-15s %-32s %14.6g %14.6g %8.4f  %s\n", sec, m.name, pm, cm, cm/pm, verdict)
		}
		// Layer rows carry no bound: they say where a difference sits.
		for _, m := range perLayer {
			pv, cv := pw.Metrics[m.name], cw.Metrics[m.name]
			if pv == nil || cv == nil || !m.inSection(sec) || median(pv.Values) == 0 {
				continue
			}
			pm, cm := median(pv.Values), median(cv.Values)
			note := ""
			if m.exact && pm != cm {
				note = "exact metric differs"
			}
			fmt.Printf("%-15s %-32s %14.6g %14.6g %8.4f  %s\n", sec, m.name, pm, cm, cm/pm, note)
		}
	}
	return exit
}

// manifestJSON renders BENCHMARK.json from the declarations.
func manifestJSON() string {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadDecls {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return string(b)
}
