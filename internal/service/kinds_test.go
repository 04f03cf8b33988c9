package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/reliability"
	"repro/internal/runner"
	"repro/internal/workload"
)

// keyOfBytes mirrors JobSpec.Key's hash step for a hand-built projection.
func keyOfBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// comparisonSpec is the small fixture shared by the kind tests.
func comparisonSpec() JobSpec {
	return JobSpec{
		Kind: KindComparison,
		Seed: 3,
		Comparison: &ComparisonSpec{
			Base: core.Config{Levels: 1, BER: 1e-5, BurstProb: 0.4, Seed: 7},
			N:    300,
		},
	}
}

// TestComparisonJobMatchesDirect: a served comparison job returns
// byte-identical results to executing the normalized spec directly —
// the serving contract extended to the new kind.
func TestComparisonJobMatchesDirect(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	c := NewInProcessClient(srv)

	res, err := c.Run(context.Background(), comparisonSpec())
	if err != nil {
		t.Fatal(err)
	}

	norm, err := comparisonSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := execute(context.Background(), norm, runner.Pool{Workers: 2, BaseSeed: norm.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != string(direct) {
		t.Fatalf("served comparison diverges from direct execution:\nserved %s\ndirect %s", res, direct)
	}

	var ordered []ProtocolResult
	if err := json.Unmarshal(res, &ordered); err != nil {
		t.Fatal(err)
	}
	if len(ordered) != len(core.Protocols) {
		t.Fatalf("comparison returned %d variants, want %d", len(ordered), len(core.Protocols))
	}
	for i, p := range core.Protocols {
		if ordered[i].Protocol != p.String() {
			t.Fatalf("variant %d is %q, want %q", i, ordered[i].Protocol, p)
		}
		if ordered[i].Result.Offered != 300 {
			t.Fatalf("variant %q offered %d", ordered[i].Protocol, ordered[i].Result.Offered)
		}
	}
}

// TestComparisonNormalizeScrubsIgnoredFields: Protocol and LinkConfig of
// the base config are overridden per variant by the engine, so two specs
// differing only there must share one cache key.
func TestComparisonNormalizeScrubsIgnoredFields(t *testing.T) {
	a := comparisonSpec()
	b := comparisonSpec()
	b.Comparison.Base.Protocol = 2
	lcfg := link.DefaultConfig(link.ProtocolRXL)
	b.Comparison.Base.LinkConfig = &lcfg
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if na.Key() != nb.Key() {
		t.Fatalf("ignored base fields split the cache key:\n%s\n%s", na.Key(), nb.Key())
	}
}

// TestComparisonSeedVariesResults: with the base seed left to default,
// the spec's top-level Seed must steer the simulation — distinct-seed
// submissions are independent samples, not byte-identical copies filed
// under different cache keys.
func TestComparisonSeedVariesResults(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	c := NewInProcessClient(srv)

	run := func(seed uint64) string {
		spec := JobSpec{
			Kind: KindComparison,
			Seed: seed,
			Comparison: &ComparisonSpec{
				Base: core.Config{Levels: 1, BER: 1e-4, BurstProb: 0.4},
				N:    400,
			},
		}
		res, err := c.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return string(res)
	}
	if run(1) == run(2) {
		t.Fatal("comparison results identical across distinct top-level seeds")
	}
}

// TestRareSelfCheckJobServes: the self-check kind runs end-to-end and
// returns parsable check points within the advertised sigma budget.
func TestRareSelfCheckJobServes(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	c := NewInProcessClient(srv)

	spec := JobSpec{
		Kind: KindRareSelfCheck,
		Seed: 1,
		RareSelfCheck: &RareSelfCheckSpec{
			BERs:   []float64{1e-6},
			Flits:  1 << 18,
			Shards: 8,
		},
	}
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var pts []reliability.RareCheckPoint
	if err := json.Unmarshal(res, &pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("self-check returned %d points", len(pts))
	}
}

// TestNewKindsValidation pins the Normalize rejections of the new kinds.
func TestNewKindsValidation(t *testing.T) {
	bad := []JobSpec{
		{Kind: KindComparison}, // no payload
		{Kind: KindComparison, Comparison: &ComparisonSpec{N: 0}},                                // no payloads
		{Kind: KindComparison, Comparison: &ComparisonSpec{Base: core.Config{BER: 2}, N: 5}},     // bad BER
		{Kind: KindRareSelfCheck, RareSelfCheck: &RareSelfCheckSpec{}},                           // no BERs
		{Kind: KindRareSelfCheck, RareSelfCheck: &RareSelfCheckSpec{BERs: []float64{0}}},         // BER out of range
		{Kind: KindGrid, Grid: &core.Grid{N: 5}, Comparison: &ComparisonSpec{N: 5}},              // two payloads
		{Kind: KindComparison, RareSelfCheck: &RareSelfCheckSpec{BERs: []float64{1e-6}}},         // kind/payload mismatch
		{Kind: KindRareSelfCheck, RareSelfCheck: &RareSelfCheckSpec{BERs: []float64{1e-6, 1.5}}}, // second BER bad
		{Kind: "mesh", Comparison: &ComparisonSpec{Base: core.Config{BER: 1e-6}, N: 5}},          // unknown kind
	}
	for i, spec := range bad {
		if _, err := spec.Normalize(); err == nil {
			t.Errorf("spec %d normalized without error: %+v", i, spec)
		}
	}
}

// TestETagNotModified: a finished job's result fetch carries an ETag (the
// content address), and a repeat fetch presenting it via If-None-Match is
// answered 304 with no body — over the real HTTP stack.
func TestETagNotModified(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	v, err := c.Submit(ctx, comparisonSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v, err = c.Wait(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("job %s: %s", v.ID, v.Status)
	}

	// First conditional fetch with no validator: full body plus ETag.
	fresh, etag, notMod, err := c.GetConditional(ctx, v.ID, "")
	if err != nil || notMod {
		t.Fatalf("initial fetch: err=%v notModified=%v", err, notMod)
	}
	if etag != `"`+v.Key+`"` {
		t.Fatalf("ETag %q, want quoted content address %q", etag, v.Key)
	}
	if len(fresh.Result) == 0 {
		t.Fatal("initial fetch had no result body")
	}

	// Repeat with the validator: 304, no body.
	_, _, notMod, err = c.GetConditional(ctx, v.ID, etag)
	if err != nil {
		t.Fatal(err)
	}
	if !notMod {
		t.Fatal("repeat fetch with matching ETag not answered 304")
	}

	// Raw HTTP double-check: 304 and empty body, wildcard also matches,
	// and a stale validator still gets the full document.
	for _, tc := range []struct {
		inm  string
		want int
	}{
		{etag, http.StatusNotModified},
		{"*", http.StatusNotModified},
		{`W/` + etag, http.StatusNotModified},
		{`"deadbeef"`, http.StatusOK},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+v.ID, nil)
		req.Header.Set("If-None-Match", tc.inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 1)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("If-None-Match %q: status %d, want %d", tc.inm, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusNotModified && n != 0 {
			t.Errorf("If-None-Match %q: 304 carried a body", tc.inm)
		}
	}

	// A resubmission of the identical spec is a cache hit.
	v2, err := c.Submit(ctx, comparisonSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatal("resubmission was not a cache hit")
	}

	// A POST carrying a matching validator must still get its full job
	// view — preconditions apply to GET/HEAD only (RFC 9110 §13.1.2); a
	// 304 on submit would lose the job ID.
	spec, _ := json.Marshal(comparisonSpec())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(spec))
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("conditional POST: status %d, want 200", resp.StatusCode)
	}
	var pv JobView
	if err := json.NewDecoder(resp.Body).Decode(&pv); err != nil || pv.ID == "" {
		t.Fatalf("conditional POST lost the job view: err=%v view=%+v", err, pv)
	}
}

// TestLegacyKindKeysUnchanged pins the PR 4 cache-key bytes of the
// original kinds: the keySpec extension must not shift them, or every
// spilled cache entry from an older daemon goes stale.
func TestLegacyKindKeysUnchanged(t *testing.T) {
	spec := JobSpec{
		Kind:  KindSweep,
		Seed:  5,
		Sweep: &SweepSpec{BERs: []float64{1e-6}, FlitsPerPoint: 1000},
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Reproduce the PR 4 projection literally: the same struct without
	// the new fields.
	legacy := struct {
		Kind  string
		Seed  uint64
		Grid  *core.Grid
		Sweep *SweepSpec
		Rare  *RareSpec
	}{Kind: norm.Kind, Seed: norm.Seed, Sweep: norm.Sweep}
	b, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := norm.Key(), keyOfBytes(b); got != want {
		t.Fatalf("legacy sweep key changed: %s != %s", got, want)
	}
}

// TestLinkConfigFreeKeyUnchanged pins the cache key of a grid spec that
// carries no LinkConfig, computed before link.Config lost its retry-policy
// fields: a change to that struct's JSON shape may move the keys of specs
// that name a LinkConfig, never of specs that don't, or the spill
// directories of existing deployments stop answering.
func TestLinkConfigFreeKeyUnchanged(t *testing.T) {
	spec, ok := decodeBody([]byte(`{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":2000}}`))
	if !ok {
		t.Fatal("smoke spec does not decode")
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := norm.Key(), "49993ec2cfaf449e454525d94599dfbdd2656ece365d325a987b3d579ef63cf8"; got != want {
		t.Fatalf("smoke spec key moved: %s, want %s", got, want)
	}
}

// TestInvalidLinkConfigRejectedNotFatal: a LinkConfig the link layer
// cannot run (a replay window past the 10-bit sequence space) or does not
// know (the retired retry-policy field, and the wiring fields the fabric
// sets on every peer itself) is a 400 at submission, and the daemon that
// refused it serves the next request. Before core.Config.Validate looked
// inside LinkConfig such specs were queued and link.NewPeer panicked in a
// runner goroutine, taking the process down.
func TestInvalidLinkConfigRejectedNotFatal(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	bodies := map[string][]byte{
		"bad-replay-window-600":           corpusBody(t, "bad-replay-window-600"),
		"retry-field":                     []byte(`{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6,"Seed":1,"LinkConfig":{"Retry":1}},"N":100}}`),
		"undecodable-linkconfig-fastpath": corpusBody(t, "undecodable-linkconfig-fastpath"),
	}
	for _, field := range []string{`"StampRoute":true`, `"RouteTag":3`, `"SrcTag":1`} {
		bodies[field] = []byte(`{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6,"LinkConfig":{"CoalesceCount":5,` + field + `}},"N":100}}`)
	}
	for name, body := range bodies {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	var valid JobSpec
	if err := json.Unmarshal(corpusBody(t, "valid-grid"), &valid); err != nil {
		t.Fatal(err)
	}
	res, err := NewInProcessClient(srv).Run(context.Background(), valid)
	if err != nil {
		t.Fatalf("valid spec after the rejections: %v", err)
	}
	var cells []core.Result
	if err := json.Unmarshal(res, &cells); err != nil || len(cells) != len(core.Protocols) {
		t.Fatalf("valid grid returned %d cells (%v), want one per protocol", len(cells), err)
	}
}

// TestKindResultBytesPinned pins the served result bytes of one small spec
// per kind. Spilled cache entries and mixed-version fleets hand these
// bytes out under keys TestLegacyKindKeysUnchanged and
// TestLinkConfigFreeKeyUnchanged hold fixed, so a refactor that moves any
// of them changes what an unchanged key answers.
func TestKindResultBytesPinned(t *testing.T) {
	cases := []struct {
		spec JobSpec
		sha  string
	}{
		{JobSpec{Kind: KindGrid, Grid: &core.Grid{
			Base: core.Config{Protocol: link.ProtocolRXL, Levels: 1, BER: 1e-5, BurstProb: 0.4}, N: 500,
		}}, "b32ae55bd54e565a4a576e46b9818a75cbc9e93690b34a2018874b774786af52"},
		{JobSpec{Kind: KindSweep, Sweep: &SweepSpec{
			BERs: []float64{1e-4, 5e-4}, FlitsPerPoint: 20000, Shards: 8,
		}}, "8edb8be0e48d1ed5d9b0d9b91cb4bf8d5adba8a2c91ca833345c55915fa67c74"},
		{JobSpec{Kind: KindRare, Rare: &RareSpec{
			BERs: []float64{1e-9}, MaxTrials: 20000, Shards: 8,
		}}, "b2e41d75c9158b32d97cd763e044a5d740deaa066e028c6d4e96a9ecdddfafe2"},
		{JobSpec{Kind: KindComparison, Comparison: &ComparisonSpec{
			Base: core.Config{Levels: 1, BER: 1e-5, BurstProb: 0.4}, N: 500,
		}}, "42553df31d3167f173b8529808982d882f87b936c07b4488b8c9580769c0f951"},
		{JobSpec{Kind: KindRareSelfCheck, RareSelfCheck: &RareSelfCheckSpec{
			BERs: []float64{1e-5}, Flits: 20000, Shards: 8,
		}}, "5e3437535769c2d2d2dabf6842228314e3eef5ba49cc46acc72dced08db095f8"},
		{JobSpec{Kind: KindScenario, Scenario: &core.ScenarioGrid{
			Base:       core.Config{Protocol: link.ProtocolRXL, BER: 1e-5, BurstProb: 0.4},
			Topologies: []core.Topology{{W: 4, H: 4}},
			Workloads:  []workload.Spec{{Kind: workload.KindUniform, Flows: 4}},
			Faults:     []core.FaultScript{{Kind: core.FaultStorm}},
			N:          50,
		}}, "93943d5236e9c1cb18ce2529cefa0f52eaecef2c5e550dab50dcb9edaf564115"},
		// A flap wire, on weighted replay and incast traffic: the CXL
		// replay cell drops a flit at the flap hook.
		{JobSpec{Kind: KindScenario, Scenario: &core.ScenarioGrid{
			Base:       core.Config{Protocol: link.ProtocolRXL, BER: 1e-5, BurstProb: 0.4},
			Protocols:  []link.Protocol{link.ProtocolCXL, link.ProtocolRXL},
			Topologies: []core.Topology{{Kind: core.TopoTorus, W: 4, H: 4}},
			Workloads: []workload.Spec{
				{Kind: workload.KindReplay, Trace: "0 5 30\n3 12 10\n9 2 20\n"},
				{Kind: workload.KindSingleSink, Flows: 5},
			},
			Faults: []core.FaultScript{{Kind: core.FaultFlap}},
			N:      40,
		}}, "5d231c6756460ffbd478de728a420a5d6e72e03edda0b4fbec1ea49784ac437b"},
	}
	for _, c := range cases {
		spec := c.spec
		spec.Seed = 1
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		out, err := execute(context.Background(), norm, runner.Pool{Workers: 2, BaseSeed: spec.Seed})
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if got := keyOfBytes(out); got != c.sha {
			t.Errorf("%s: result bytes hash to %s, want %s", spec.Kind, got, c.sha)
		}
	}
}
