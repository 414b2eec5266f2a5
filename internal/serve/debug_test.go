package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"linkreversal/internal/dist"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
	"linkreversal/internal/workload"
)

// newObservedServer boots a sharded chain network with the engine observer
// armed and the full debug surface on, then pushes a little churn and
// routing traffic through it so every metric family has data.
func newObservedServer(t *testing.T, n int) (*obs.Observer, *httptest.Server) {
	t.Helper()
	o := obs.New()
	// BadChain starts all-away from the destination, so stabilization does
	// real protocol work — the step/reversal families get nonzero series.
	net, err := dist.NewDynamicNetworkWith(workload.BadChain(n),
		dist.DynOptions{Shards: 2, Observer: o})
	if err != nil {
		t.Fatalf("NewDynamicNetworkWith: %v", err)
	}
	t.Cleanup(func() { net.Stop() })
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatalf("AwaitQuiescence: %v", err)
	}
	srv := New(net, Config{Topology: "chain", Shards: 2, Scenario: "reliable", Seed: 1,
		Observer: o, Pprof: true})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Flap a chord and route a few times: reversals, deliveries, link
	// events and epoch publications all land in the recorder.
	chord := graph.NodeID(n - 1)
	if err := net.AddLink(0, chord); err != nil {
		t.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	if err := net.FailLink(0, chord); err != nil {
		t.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	var rr routeResponse
	for i := 1; i < n; i++ {
		getJSON(t, fmt.Sprintf("%s/route/%d", ts.URL, i), &rr)
	}
	return o, ts
}

func getBody(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, buf.String(), resp.Header
}

func TestDebugEvents(t *testing.T) {
	_, ts := newObservedServer(t, 6)

	var body struct {
		Count  int               `json:"count"`
		Events []json.RawMessage `json:"events"`
	}
	if code := getJSON(t, ts.URL+"/debug/events?n=16", &body); code != http.StatusOK {
		t.Fatalf("GET /debug/events = %d", code)
	}
	if body.Count == 0 || body.Count != len(body.Events) || body.Count > 16 {
		t.Errorf("events count=%d len=%d, want 1..16 and consistent", body.Count, len(body.Events))
	}
	var ev struct {
		Kind string `json:"kind"`
		T    int64  `json:"t_ns"`
	}
	if err := json.Unmarshal(body.Events[0], &ev); err != nil {
		t.Fatalf("event decode: %v", err)
	}
	if ev.Kind == "" {
		t.Errorf("event kind empty: %s", body.Events[0])
	}

	for _, bad := range []string{"?n=-1", "?n=banana"} {
		if code, _, _ := getBody(t, ts.URL+"/debug/events"+bad); code != http.StatusBadRequest {
			t.Errorf("GET /debug/events%s = %d, want 400", bad, code)
		}
	}
}

func TestDebugTrace(t *testing.T) {
	_, ts := newObservedServer(t, 6)
	code, body, hdr := getBody(t, ts.URL+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/trace = %d", code)
	}
	if cd := hdr.Get("Content-Disposition"); !strings.Contains(cd, "lrd-trace.json") {
		t.Errorf("Content-Disposition = %q", cd)
	}
	var tr struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	instants := 0
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "i" {
			instants++
		}
	}
	if instants == 0 {
		t.Error("trace export carries no instant events")
	}
}

func TestDebugVars(t *testing.T) {
	_, ts := newObservedServer(t, 6)
	code, body, hdr := getBody(t, ts.URL+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	for _, key := range []string{"memstats", "cmdline", "lrd"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	var lrd struct {
		Epoch  uint64            `json:"epoch"`
		Nodes  int               `json:"nodes"`
		Shards []json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal(vars["lrd"], &lrd); err != nil {
		t.Fatal(err)
	}
	if lrd.Nodes != 7 || lrd.Epoch == 0 { // BadChain(6) is 6 bad nodes + dest
		t.Errorf("lrd vars = %+v", lrd)
	}
	if len(lrd.Shards) != 3 { // 2 engine shards + ctl
		t.Errorf("lrd.shards has %d entries, want 3", len(lrd.Shards))
	}
}

func TestDebugPprofGate(t *testing.T) {
	_, observed := newObservedServer(t, 4)
	if code, _, _ := getBody(t, observed.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof-on cmdline = %d, want 200", code)
	}

	_, plain := newTestServer(t, 4)
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/events", "/debug/trace"} {
		if code, _, _ := getBody(t, plain.URL+path); code != http.StatusNotFound {
			t.Errorf("unarmed server GET %s = %d, want 404", path, code)
		}
	}
	// /debug/vars works without an observer — it just omits the shards.
	code, body, _ := getBody(t, plain.URL+"/debug/vars")
	if code != http.StatusOK || strings.Contains(body, `"shards"`) {
		t.Errorf("unarmed /debug/vars = %d (shards present: %v)", code, strings.Contains(body, `"shards"`))
	}
}

// --- Prometheus text-exposition validation -------------------------------

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseLabels parses the {...} label block of one exposition line,
// honouring quoted-string escapes.
func parseLabels(t *testing.T, line, s string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			t.Fatalf("label block without '=': %q in %q", s, line)
		}
		name := s[:eq]
		if !labelNameRE.MatchString(name) {
			t.Errorf("bad label name %q in %q", name, line)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			t.Fatalf("unquoted label value in %q", line)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '\\':
				if i+1 >= len(s) {
					t.Fatalf("dangling escape in %q", line)
				}
				i++
				switch s[i] {
				case '\\', '"':
					val.WriteByte(s[i])
				case 'n':
					val.WriteByte('\n')
				default:
					t.Errorf("invalid escape \\%c in %q", s[i], line)
				}
			case '"':
				closed = true
				s = s[i+1:]
				i = len(s)
			default:
				val.WriteByte(s[i])
			}
			if closed {
				break
			}
		}
		if !closed {
			t.Fatalf("unterminated label value in %q", line)
		}
		if _, dup := out[name]; dup {
			t.Errorf("duplicate label %q in %q", name, line)
		}
		out[name] = val.String()
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if len(s) > 0 {
			t.Fatalf("junk after label value: %q in %q", s, line)
		}
	}
	return out
}

// family maps a sample name to its declared family: histogram samples
// carry the _bucket/_sum/_count suffixes of their base name.
func family(types map[string]string, name string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if types[base] == "histogram" {
				return base
			}
		}
	}
	return ""
}

// validateExposition lints a Prometheus text-format payload: well-formed
// comments, declared types, legal names, parseable values, no duplicate
// series, and TYPE-before-samples ordering. It returns the samples for
// content assertions.
func validateExposition(t *testing.T, body string) []promSample {
	t.Helper()
	types := map[string]string{} // family -> type
	helps := map[string]bool{}   // family -> HELP seen
	seen := map[string]bool{}    // name+labels -> dup check
	sampled := map[string]bool{} // family -> sample seen (for ordering)
	var samples []promSample
	validTypes := map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}

	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Errorf("malformed comment line %q", line)
				continue
			}
			name := parts[2]
			if !metricNameRE.MatchString(name) {
				t.Errorf("bad metric name in %q", line)
			}
			if parts[1] == "TYPE" {
				if len(parts) != 4 || !validTypes[parts[3]] {
					t.Errorf("bad TYPE line %q", line)
					continue
				}
				if _, dup := types[name]; dup {
					t.Errorf("duplicate TYPE for %s", name)
				}
				if sampled[name] {
					t.Errorf("TYPE for %s after its samples", name)
				}
				types[name] = parts[3]
			} else {
				if helps[name] {
					t.Errorf("duplicate HELP for %s", name)
				}
				helps[name] = true
			}
			continue
		}
		// Sample line: name[{labels}] value
		rest := line
		var name, labelBlock string
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			j := strings.LastIndexByte(rest, '}')
			if j < i {
				t.Fatalf("unterminated label block in %q", line)
			}
			labelBlock = rest[i+1 : j]
			rest = strings.TrimSpace(rest[j+1:])
		} else {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Errorf("malformed sample line %q", line)
				continue
			}
			name, rest = fields[0], fields[1]
		}
		if !metricNameRE.MatchString(name) {
			t.Errorf("bad sample name in %q", line)
			continue
		}
		value, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		labels := parseLabels(t, line, labelBlock)
		fam := family(types, name)
		if fam == "" {
			t.Errorf("sample %q has no TYPE declaration", name)
		} else {
			sampled[fam] = true
			if !helps[fam] {
				t.Errorf("family %s has no HELP", fam)
			}
			if types[fam] == "counter" && value < 0 {
				t.Errorf("negative counter in %q", line)
			}
		}
		pairs := make([]string, 0, len(labels))
		for k, v := range labels {
			pairs = append(pairs, k+"="+v)
		}
		sort.Strings(pairs)
		key := name + "|" + strings.Join(pairs, ",")
		if seen[key] {
			t.Errorf("duplicate series %q", key)
		}
		seen[key] = true
		samples = append(samples, promSample{name: name, labels: labels, value: value})
	}
	return samples
}

// TestMetricsExposition scrapes /metrics with the observer armed and lints
// the whole payload, then checks the engine families specifically:
// histogram bucket monotonicity and the per-shard series (engine shards
// plus the "ctl" control-plane label).
func TestMetricsExposition(t *testing.T) {
	_, ts := newObservedServer(t, 6)
	code, body, _ := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	samples := validateExposition(t, body)

	// Histogram sanity: per endpoint, cumulative buckets are nondecreasing
	// in le and the +Inf bucket equals _count.
	type hkey struct{ endpoint string }
	buckets := map[hkey][]promSample{}
	counts := map[hkey]float64{}
	for _, s := range samples {
		switch s.name {
		case "lrd_request_duration_seconds_bucket":
			buckets[hkey{s.labels["endpoint"]}] = append(buckets[hkey{s.labels["endpoint"]}], s)
		case "lrd_request_duration_seconds_count":
			counts[hkey{s.labels["endpoint"]}] = s.value
		}
	}
	if len(buckets) == 0 {
		t.Error("no latency histogram series")
	}
	for k, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool {
			le := func(s promSample) float64 {
				v, _ := strconv.ParseFloat(s.labels["le"], 64)
				return v
			}
			return le(bs[i]) < le(bs[j])
		})
		for i := 1; i < len(bs); i++ {
			if bs[i].value < bs[i-1].value {
				t.Errorf("endpoint %s: bucket le=%s (%g) < le=%s (%g)", k.endpoint,
					bs[i].labels["le"], bs[i].value, bs[i-1].labels["le"], bs[i-1].value)
			}
		}
		last := bs[len(bs)-1]
		if last.labels["le"] != "+Inf" {
			t.Errorf("endpoint %s: last bucket le=%s, want +Inf", k.endpoint, last.labels["le"])
		}
		if last.value != counts[k] {
			t.Errorf("endpoint %s: +Inf bucket %g != count %g", k.endpoint, last.value, counts[k])
		}
	}

	// The served epoch's age: one series, at most as old as the server.
	var ages []float64
	for _, s := range samples {
		if s.name == "lrd_epoch_age_seconds" {
			ages = append(ages, s.value)
		}
	}
	if len(ages) != 1 || ages[0] < 0 || ages[0] > 60 {
		t.Errorf("lrd_epoch_age_seconds series = %v, want one value in [0, 60]", ages)
	}

	// Engine families: every lrd_shard_* family present, one series per
	// shard label {0, 1, ctl}.
	shardLabels := map[string]map[string]bool{}
	for _, s := range samples {
		if strings.HasPrefix(s.name, "lrd_shard_") {
			if shardLabels[s.name] == nil {
				shardLabels[s.name] = map[string]bool{}
			}
			shardLabels[s.name][s.labels["shard"]] = true
		}
	}
	wantFamilies := []string{
		"lrd_shard_steps_total", "lrd_shard_reversals_total", "lrd_shard_delivered_total",
		"lrd_shard_remote_total", "lrd_shard_acks_total",
		"lrd_shard_retransmits_total", "lrd_shard_batches_total",
		"lrd_shard_events_total", "lrd_shard_events_sampled_total",
		"lrd_shard_runq_peak", "lrd_shard_mailbox_peak",
		"lrd_shard_batch_fill_ratio",
		"lrd_shard_busy_seconds_total", "lrd_shard_idle_seconds_total",
	}
	for _, fam := range wantFamilies {
		got := shardLabels[fam]
		if got == nil {
			t.Errorf("missing family %s", fam)
			continue
		}
		for _, lbl := range []string{"0", "1", "ctl"} {
			if !got[lbl] {
				t.Errorf("%s missing shard=%q series (have %v)", fam, lbl, got)
			}
		}
	}
	var steps float64
	for _, s := range samples {
		if s.name == "lrd_shard_steps_total" {
			steps += s.value
		}
	}
	if steps == 0 {
		t.Error("lrd_shard_steps_total sums to 0 after a stabilized run")
	}

	// And the families must vanish — not zero out — when no observer is
	// armed: absent series, clean lint.
	_, plain := newTestServer(t, 4)
	code, body, _ = getBody(t, plain.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("unarmed GET /metrics = %d", code)
	}
	validateExposition(t, body)
	if strings.Contains(body, "lrd_shard_") {
		t.Error("unarmed /metrics exposes lrd_shard_* series")
	}
}
