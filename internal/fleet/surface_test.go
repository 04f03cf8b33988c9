package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// surfaceRow is one quantity of the serving stack's stats surface: its
// /v1/statsz JSON path and its /metrics family. Either side may be empty
// (the quantity exists on one surface only). The tables below are the
// golden list: TestSurfaceGolden requires the live processes to expose
// exactly these keys, families, types and labels, TestOneStoreContract
// requires both sides of every two-sided row to report the same value,
// and TestOperationsReferenceTables requires OPERATIONS.md to carry these
// rows verbatim — one list, three checks.
type surfaceRow struct {
	JSON    string // dotted statsz path; "peers[]" marks the per-peer array
	Family  string // family name, plus {label} when the series is labelled
	Type    string // counter | gauge | histogram ("" without a family)
	Meaning string
	// Clock marks wall-clock quantities, which two scrapes never agree on.
	Clock bool
}

var daemonSurface = []surfaceRow{
	{JSON: "uptime_ms", Family: "rxld_uptime_seconds", Type: "gauge", Clock: true, Meaning: "Time since process start (milliseconds in statsz, seconds in /metrics)"},
	{Family: "rxld_request_seconds{outcome}", Type: "histogram", Meaning: "Submit-to-terminal latency, split by `outcome`: `hit` (memory/disk cache), `miss` (computed), `peer_fetched` (bytes pulled from the owner), `inflight_join` (deduped onto a running job), `error` (failed/canceled)"},
	{JSON: "shard_budget", Family: "rxld_shard_budget", Type: "gauge", Meaning: "Total engine-shard concurrency cap"},
	{JSON: "shards_in_use", Family: "rxld_shards_in_use", Type: "gauge", Meaning: "Worker shards granted to running jobs right now"},
	{JSON: "peak_shards_in_use", Meaning: "High-water mark of `shards_in_use`"},
	{JSON: "shard_utilization", Family: "rxld_shard_utilization", Type: "gauge", Meaning: "`shards_in_use / shard_budget`"},
	{JSON: "queue_depth", Family: "rxld_queue_depth", Type: "gauge", Meaning: "Jobs waiting for admission"},
	{JSON: "queue_capacity", Family: "rxld_queue_capacity", Type: "gauge", Meaning: "Admission queue bound (a full queue answers 429)"},
	{JSON: "running_jobs", Family: "rxld_running_jobs", Type: "gauge", Meaning: "Jobs currently executing"},
	{JSON: "jobs_submitted", Family: "rxld_jobs_submitted_total", Type: "counter", Meaning: "Jobs admitted (cache hits included)"},
	{JSON: "jobs_completed", Family: "rxld_jobs_completed_total", Type: "counter", Meaning: "Jobs that reached a terminal state"},
	{JSON: "dedup_hits", Family: "rxld_dedup_hits_total", Type: "counter", Meaning: "Submissions coalesced onto an identical in-flight job"},
	{JSON: "jobs_by_status", Meaning: "Retained jobs by state: queued / running / done / failed / canceled"},
	{JSON: "cache.entries", Family: "rxld_cache_entries", Type: "gauge", Meaning: "Memory-tier entries"},
	{JSON: "cache.capacity", Family: "rxld_cache_capacity", Type: "gauge", Meaning: "Memory-tier entry bound"},
	{JSON: "cache.bytes", Family: "rxld_cache_bytes", Type: "gauge", Meaning: "Result bytes resident in the memory tier"},
	{JSON: "cache.hits", Family: "rxld_cache_hits_total", Type: "counter", Meaning: "Client-facing memory-tier hits"},
	{JSON: "cache.misses", Family: "rxld_cache_misses_total", Type: "counter", Meaning: "Client-facing cache misses"},
	{JSON: "cache.disk_hits", Family: "rxld_cache_disk_hits_total", Type: "counter", Meaning: "Memory misses answered by the disk tier"},
	{JSON: "cache.spills", Family: "rxld_cache_spills_total", Type: "counter", Meaning: "Entries written through to the spill directory"},
	{JSON: "cache.hit_rate", Meaning: "`(hits + disk_hits) / (hits + disk_hits + misses)`"},
	{Family: "rxld_traces_live", Type: "gauge", Meaning: "Request IDs currently held in the trace buffer"},
}

// memberSurface is what fleet members (PeerFetch / FleetInfo configured)
// add. A standalone daemon exposes none of these families, and its statsz
// shows `cache.probes` only once something has probed it.
var memberSurface = []surfaceRow{
	{JSON: "cache.probes", Family: "rxld_cache_probes_total", Type: "counter", Meaning: "Peer cache lookups received (`GET /v1/cache/{key}`), served or not — counted apart so fleet chatter never skews `hit_rate`"},
	{JSON: "fleet.peer_probes", Family: "rxld_cache_probes_total", Type: "counter", Meaning: "The same count, repeated in the `fleet` object"},
	{JSON: "fleet.self", Meaning: "This daemon's URL as hashed onto the ring"},
	{JSON: "fleet.peers", Meaning: "Fleet size, self included"},
	{JSON: "fleet.ring_size", Meaning: "Total virtual nodes (`peers × vnodes`)"},
	{JSON: "fleet.replicas", Meaning: "Distinct owners a local miss will query before computing"},
	{JSON: "fleet.peer_hits", Family: "rxld_peer_fetch_hits_total", Type: "counter", Meaning: "Local misses answered with a peer's bytes (saved engine runs)"},
	{JSON: "fleet.peer_misses", Family: "rxld_peer_fetch_misses_total", Type: "counter", Meaning: "Miss-path fleet consultations that fell through to a local compute — **includes self-owned keys**, where the consultation is a no-op by design, so on a well-routed fleet this tracks computed jobs, not failures"},
	{JSON: "fleet.peer_served", Family: "rxld_peer_served_total", Type: "counter", Meaning: "Peer cache lookups this daemon answered with bytes — its service to the fleet"},
}

var frontSurface = []surfaceRow{
	{JSON: "role", Meaning: "Always `\"front\"`"},
	{JSON: "uptime_ms", Family: "rxlfront_uptime_seconds", Type: "gauge", Clock: true, Meaning: "Time since front start (milliseconds in statsz, seconds in /metrics)"},
	{Family: "rxlfront_submit_seconds{outcome}", Type: "histogram", Meaning: "Submit forwarding latency with the daemon's outcome split, as seen from the `JobView` the owner returned — a forwarded `miss` is observed at accept time, so it measures routing cost, not compute"},
	{JSON: "ring_size", Family: "rxlfront_ring_size", Type: "gauge", Meaning: "Virtual nodes on the routing ring (must match the members')"},
	{JSON: "vnodes", Meaning: "Virtual nodes per peer"},
	{JSON: "hot_threshold", Meaning: "Decayed request count at which a key is promoted"},
	{JSON: "hot_replicas", Meaning: "Owners a promoted key's requests spread over"},
	{JSON: "hot_tracked", Family: "rxlfront_hot_tracked", Type: "gauge", Meaning: "Keys currently in the decaying popularity tracker"},
	{JSON: "hot_promotions", Family: "rxlfront_hot_promotions_total", Type: "counter", Meaning: "Submissions routed via a hot key's replica set"},
	{JSON: "forwards", Family: "rxlfront_forwards_total", Type: "counter", Meaning: "Submissions forwarded to an owner"},
	{JSON: "failovers", Family: "rxlfront_failovers_total", Type: "counter", Meaning: "Forwards that skipped at least one dead owner"},
	{JSON: "peers[].url", Meaning: "The peer's base URL — the `peer` label of every per-peer family"},
	{JSON: "peers[].up", Family: "rxlfront_peer_up{peer}", Type: "gauge", Meaning: "1 / true while the peer is routable (probe verdict AND passive marks)"},
	{Family: "rxlfront_peer_probe_ok{peer}", Type: "gauge", Meaning: "1 while the peer's last active health probe succeeded"},
	{JSON: "peers[].routed", Family: "rxlfront_peer_routed_total{peer}", Type: "counter", Meaning: "Successful forwards to the peer"},
	{JSON: "peers[].errors", Family: "rxlfront_peer_errors_total{peer}", Type: "counter", Meaning: "Transport failures forwarding to the peer"},
	{JSON: "peers[].probes", Family: "rxlfront_peer_probes_total{peer}", Type: "counter", Meaning: "Active health probes sent to the peer"},
	{JSON: "peers[].probe_fails", Family: "rxlfront_peer_probe_failures_total{peer}", Type: "counter", Meaning: "Active health probes the peer failed"},
	{Family: "rxlfront_traces_live", Type: "gauge", Meaning: "Request IDs currently held in the front's trace buffer"},
}

// familyName splits "name{label}" into its parts.
func familyName(f string) (name, label string) {
	name, label, _ = strings.Cut(strings.TrimSuffix(f, "}"), "{")
	return name, label
}

// scrapeSurface is one process's two stats surfaces, read back to back.
type scrapeSurface struct {
	statsz   map[string]any    // flattened leaves, arrays as "peers[0].url"
	samples  []obs.Sample      // parsed /metrics
	families map[string]string // family → type, from the # TYPE lines
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return b
}

func scrapeBoth(t *testing.T, base string) scrapeSurface {
	t.Helper()
	var doc any
	if err := json.Unmarshal(getBody(t, base+"/v1/statsz"), &doc); err != nil {
		t.Fatal(err)
	}
	sc := scrapeSurface{statsz: map[string]any{}, families: map[string]string{}}
	var flatten func(prefix string, v any)
	flatten = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			if prefix == "jobs_by_status" { // keyed by whichever states occur
				sc.statsz[prefix] = v
				return
			}
			for k, c := range v {
				if prefix != "" {
					k = prefix + "." + k
				}
				flatten(k, c)
			}
		case []any:
			for i, c := range v {
				flatten(fmt.Sprintf("%s[%d]", prefix, i), c)
			}
		default:
			sc.statsz[prefix] = v
		}
	}
	flatten("", doc)

	text := getBody(t, base+"/metrics")
	var err error
	if sc.samples, err = obs.ParsePrometheus(strings.NewReader(string(text))); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(strings.NewReader(string(text)))
	for lines.Scan() {
		if f := strings.Fields(lines.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			sc.families[f[2]] = f[3]
		}
	}
	return sc
}

var arrayIndex = regexp.MustCompile(`\[\d+\]`)

// checkGolden requires the scraped surfaces to expose exactly the rows'
// statsz keys and exactly their families, with the listed type and label.
func checkGolden(t *testing.T, who string, sc scrapeSurface, rows []surfaceRow) {
	t.Helper()
	wantKeys, wantFams := map[string]bool{}, map[string]surfaceRow{}
	for _, r := range rows {
		if r.JSON != "" {
			wantKeys[r.JSON] = true
		}
		if r.Family != "" {
			name, _ := familyName(r.Family)
			wantFams[name] = r
		}
	}
	gotKeys := map[string]bool{}
	for k := range sc.statsz {
		gotKeys[arrayIndex.ReplaceAllString(k, "[]")] = true
	}
	if d := setDiff(wantKeys, gotKeys); d != "" {
		t.Errorf("%s statsz keys drifted from the golden list: %s", who, d)
	}
	gotFams := map[string]bool{}
	for name, typ := range sc.families {
		gotFams[name] = true
		if r, ok := wantFams[name]; ok && r.Type != typ {
			t.Errorf("%s family %s has type %s, golden list says %s", who, name, typ, r.Type)
		}
	}
	wantNames := map[string]bool{}
	for name := range wantFams {
		wantNames[name] = true
	}
	if d := setDiff(wantNames, gotFams); d != "" {
		t.Errorf("%s /metrics families drifted from the golden list: %s", who, d)
	}
	for _, s := range sc.samples {
		base := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if _, ok := wantFams[strings.TrimSuffix(s.Name, suffix)]; ok && strings.HasSuffix(s.Name, suffix) {
				base = strings.TrimSuffix(s.Name, suffix)
			}
		}
		_, wantLabel := familyName(wantFams[base].Family)
		var labels []string
		for k := range s.Labels {
			if k != "le" {
				labels = append(labels, k)
			}
		}
		if got := strings.Join(labels, ","); got != wantLabel {
			t.Errorf("%s series %s carries labels {%s}, golden list says {%s}", who, s.Name, got, wantLabel)
		}
	}
}

func setDiff(want, got map[string]bool) string {
	var d []string
	for k := range want {
		if !got[k] {
			d = append(d, "missing "+k)
		}
	}
	for k := range got {
		if !want[k] {
			d = append(d, "unexpected "+k)
		}
	}
	sort.Strings(d)
	return strings.Join(d, ", ")
}

// number reads a flattened statsz leaf as the float /metrics would show.
func number(t *testing.T, v any) float64 {
	t.Helper()
	switch v := v.(type) {
	case nil:
		return 0
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
		return 0
	}
	t.Fatalf("statsz leaf %v (%T) is not numeric", v, v)
	return 0
}

// checkOneStore requires every two-sided row to read the same value from
// statsz and from /metrics.
func checkOneStore(t *testing.T, who string, sc scrapeSurface, rows []surfaceRow) {
	t.Helper()
	for _, r := range rows {
		if r.JSON == "" || r.Family == "" || r.Clock {
			continue
		}
		name, label := familyName(r.Family)
		if label == "" {
			// An absent key is an omitempty zero (cache.probes before the
			// first probe); TestSurfaceGolden pins which keys exist.
			if j, m := number(t, sc.statsz[r.JSON]), obs.SumSamples(sc.samples, name); j != m {
				t.Errorf("%s: statsz %s = %v but /metrics %s = %v", who, r.JSON, j, name, m)
			}
			continue
		}
		// Per-peer row: "peers[].x" against family{peer=peers[i].url}.
		for i := 0; ; i++ {
			idx := fmt.Sprintf("[%d]", i)
			url, ok := sc.statsz["peers"+idx+".url"].(string)
			if !ok {
				if i == 0 {
					t.Errorf("%s statsz lists no peers", who)
				}
				break
			}
			key := strings.Replace(r.JSON, "[]", idx, 1)
			if j, m := number(t, sc.statsz[key]), obs.SumSamples(sc.samples, name, label, url); j != m {
				t.Errorf("%s: statsz %s = %v but /metrics %s{%s=%q} = %v", who, key, j, name, label, url, m)
			}
		}
	}
}

// TestSurfaceGolden pins the names of the stats surface — statsz JSON
// keys, /metrics family names, types and labels — for a standalone
// daemon, a fleet member and the front.
func TestSurfaceGolden(t *testing.T) {
	standalone, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer standalone.Close()
	ts := httptest.NewServer(standalone)
	defer ts.Close()
	checkGolden(t, "standalone daemon", scrapeBoth(t, ts.URL), daemonSurface)

	tf := startFleet(t, 2, FrontConfig{ProbeInterval: -1})
	// One warmed key submitted to both members makes the non-owner probe
	// the owner, so cache.probes (omitted while zero) is on the wire.
	spec := gridSpec(61)
	for _, u := range tf.urls {
		if _, err := service.NewClient(u).Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	member := append(append([]surfaceRow{}, daemonSurface...), memberSurface...)
	probed := 0
	for i, u := range tf.urls {
		sc := scrapeBoth(t, u)
		if _, ok := sc.statsz["cache.probes"]; !ok {
			continue // this member computed; the other one was probed
		}
		probed++
		checkGolden(t, fmt.Sprintf("member %d", i), sc, member)
	}
	if probed == 0 {
		t.Fatal("no member was ever probed by its peer")
	}
	checkGolden(t, "front", scrapeBoth(t, tf.frontTS.URL), frontSurface)
}

// TestOneStoreContract drives concurrent hit / miss / in-flight-join /
// peer-fetch traffic at a 3-member fleet — through the front (with hot-key
// spreading) and at the members directly — then, at rest, scrapes
// /v1/statsz and /metrics from every process and requires every quantity
// both surfaces publish to be equal: they read the same registry counter.
func TestOneStoreContract(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{
		HotThreshold:  2,
		HotReplicas:   2,
		ProbeInterval: 5 * time.Millisecond,
	})
	ctx := context.Background()
	front := service.NewClient(tf.frontTS.URL)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				// Four specs, eight workers: first arrivals miss or join an
				// in-flight twin, repeats hit, hot keys spread to a replica
				// that peer-fetches. The direct submission follows the
				// front's answer, so the owner already holds the key and the
				// non-owner peer-fetches it.
				spec := gridSpec(uint64(70 + (w+i)%4))
				if _, err := front.Run(ctx, spec); err != nil {
					t.Errorf("worker %d request %d via front: %v", w, i, err)
				}
				member := service.NewClient(tf.urls[(w+i)%len(tf.urls)])
				if _, err := member.Run(ctx, spec); err != nil {
					t.Errorf("worker %d request %d direct: %v", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	tf.front.Close() // stops the prober; the front keeps serving

	member := append(append([]surfaceRow{}, daemonSurface...), memberSurface...)
	var hits, peerHits float64
	for i, u := range tf.urls {
		sc := scrapeBoth(t, u)
		checkOneStore(t, fmt.Sprintf("member %d", i), sc, member)
		hits += obs.SumSamples(sc.samples, "rxld_cache_hits_total")
		peerHits += obs.SumSamples(sc.samples, "rxld_peer_fetch_hits_total")
	}
	if hits == 0 || peerHits == 0 {
		t.Errorf("load was not mixed: %v cache hits, %v peer-fetch hits fleet-wide", hits, peerHits)
	}
	fsc := scrapeBoth(t, tf.frontTS.URL)
	checkOneStore(t, "front", fsc, frontSurface)
	if obs.SumSamples(fsc.samples, "rxlfront_forwards_total") == 0 ||
		obs.SumSamples(fsc.samples, "rxlfront_peer_probes_total") == 0 {
		t.Error("front counters never advanced under load")
	}
}

// referenceTable renders rows the way OPERATIONS.md carries them.
func referenceTable(rows []surfaceRow) string {
	var b strings.Builder
	b.WriteString("| `/v1/statsz` key | `/metrics` family | Type | Meaning |\n|---|---|---|---|\n")
	cell := func(s string) string {
		if s == "" {
			return "—"
		}
		return "`" + s + "`"
	}
	for _, r := range rows {
		typ := r.Type
		if typ == "" {
			typ = "—"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", cell(r.JSON), cell(r.Family), typ, r.Meaning)
	}
	return b.String()
}

// TestOperationsReferenceTables keeps OPERATIONS.md's stats-and-metrics
// reference generated from the golden list: each marked block must equal
// the table rendered from the rows above. On drift the failure prints the
// block to paste.
func TestOperationsReferenceTables(t *testing.T) {
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rows []surfaceRow
	}{
		{"daemon", daemonSurface},
		{"member", memberSurface},
		{"front", frontSurface},
	} {
		begin := "<!-- surface:" + tc.name + ":begin -->\n"
		end := "<!-- surface:" + tc.name + ":end -->"
		_, rest, ok := strings.Cut(string(doc), begin)
		got, _, ok2 := strings.Cut(rest, end)
		want := referenceTable(tc.rows)
		if !ok || !ok2 || got != want {
			t.Errorf("OPERATIONS.md %s reference table is not the golden list; the block must read:\n%s%s%s", tc.name, begin, want, end)
		}
	}
}
