package main

import (
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// smokeEnv is a -scale 0.01 run with a short window.
func smokeEnv(t *testing.T, seed uint64) *env {
	return &env{seed: seed, seconds: 0.2, scale: 0.01, outDir: t.TempDir()}
}

func names(decls []metric) map[string]bool {
	out := map[string]bool{}
	for _, m := range decls {
		out[m.name] = true
	}
	return out
}

// TestSuiteSmoke runs all six workloads, untraced and traced, and checks
// what they emit against the declarations and against a second run.
func TestSuiteSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, wd := range workloadDecls {
		t.Run(wd.name, func(t *testing.T) {
			if !nameRE.MatchString(wd.name) {
				t.Errorf("workload name %q", wd.name)
			}
			e2e, err := runUntraced(wd.name, smokeEnv(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !e2e.Correct || e2e.Failed != 0 {
				t.Errorf("untraced: %d of %d checks failed: %v", e2e.Failed, e2e.Attempted, e2e.notes)
			}
			for _, m := range endToEnd {
				if v, ok := e2e.Metrics[m.name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v): must be reported and never 0", m.name, v.Value, ok)
				}
			}
			if len(e2e.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, %d declared", len(e2e.Metrics), len(endToEnd))
			}

			// Same seed twice: exact metrics repeat. Seed 2: the
			// seed-dependent ones move.
			first, err := runTraced(wd.name, smokeEnv(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			again, err := runTraced(wd.name, smokeEnv(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			heldOut, err := runTraced(wd.name, smokeEnv(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			if first.Failed+again.Failed+heldOut.Failed != 0 {
				t.Errorf("traced runs failed checks: %v %v %v", first.notes, again.notes, heldOut.notes)
			}
			if len(first.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, %d declared", len(first.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if !nameRE.MatchString(m.name) {
					t.Errorf("metric name %q", m.name)
				}
				v, ok := first.Metrics[m.name]
				if !ok {
					t.Errorf("per-layer metric %s not reported", m.name)
					continue
				}
				if !m.measuredOn(wd.name) {
					if v.Value != 0 {
						t.Errorf("%s = %v on a workload it is not measured on", m.name, v.Value)
					}
					continue
				}
				if m.exact && v.Value != again.Metrics[m.name].Value {
					t.Errorf("exact metric %s differs between two runs of seed 1: %v, %v", m.name, v.Value, again.Metrics[m.name].Value)
				}
			}
			for _, name := range []string{"sim.events_per_flit", "est_rel_err"} {
				if m := first.Metrics[name]; m.Value != 0 && m.Value == heldOut.Metrics[name].Value {
					t.Errorf("%s = %v on seed 1 and seed 2: the seed does not reach the inputs", name, m.Value)
				}
			}
			if _, err := os.Stat(first.traceFile); err != nil {
				t.Errorf("no span file: %v", err)
			}
			if wd.name == "mesh_clean" {
				sum := first.Metrics["bench.kernel_share"].Value + first.Metrics["bench.engine_share"].Value + first.Metrics["bench.residual_share"].Value
				if sum < 0.999999 || sum > 1.000001 {
					t.Errorf("reconcile shares sum to %v, want 1", sum)
				}
			}
		})
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json equal to the
// declarations in metrics.go.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := manifestJSON()
	if strings.TrimSpace(string(b)) != want {
		t.Errorf("BENCHMARK.json differs from `bench/run.sh -manifest`; regenerate it")
	}
	if dup := len(endToEnd) + len(perLayer) - len(names(append(append([]metric{}, endToEnd...), perLayer...))); dup != 0 {
		t.Errorf("%d metric names are declared twice", dup)
	}
}

// TestInjectedFailures: a flow that is not Clean, and a 500 from a stub
// in front of the daemon, must raise failed and the exit code.
func TestInjectedFailures(t *testing.T) {
	t.Run("dirty flow", func(t *testing.T) {
		e := smokeEnv(t, 1)
		e.hooks.meshResult = func(r *core.ScenarioResult) { r.Result.PerFlow[3].FailOrder++ }
		r, err := runUntraced("mesh_clean", e)
		if err != nil {
			t.Fatal(err)
		}
		if r.Correct || r.Failed == 0 {
			t.Errorf("a flow marked not Clean went unnoticed: %+v", r)
		}
		if code := runOne("mesh_clean", e, false); code != 1 {
			t.Errorf("exit code %d, want 1", code)
		}
	})
	t.Run("http 500", func(t *testing.T) {
		for _, name := range []string{"serve_mix", "fleet_mix"} {
			e := smokeEnv(t, 1)
			var posts atomic.Int64
			e.hooks.handler = func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					// Let priming through, then fail every 50th submit.
					if r.Method == http.MethodPost && posts.Add(1) > hotSet && posts.Load()%50 == 0 {
						http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
						return
					}
					next.ServeHTTP(w, r)
				})
			}
			r, err := runTraced(name, e)
			if err != nil {
				t.Fatal(err)
			}
			if r.Correct || r.Failed == 0 || r.Metrics["fail_ratio"].Value <= 0 {
				t.Errorf("%s: injected 500s went unnoticed: failed %d, fail_ratio %v", name, r.Failed, r.Metrics["fail_ratio"].Value)
			}
		}
	})
}
