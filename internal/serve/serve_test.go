package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"linkreversal/internal/dist"
	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// newTestServer boots a chain network of n nodes behind an httptest server.
func newTestServer(t *testing.T, n int) (*dist.DynamicNetwork, *httptest.Server) {
	t.Helper()
	net, err := dist.NewDynamicNetwork(workload.GoodChain(n))
	if err != nil {
		t.Fatalf("NewDynamicNetwork: %v", err)
	}
	t.Cleanup(func() { net.Stop() })
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatalf("AwaitQuiescence: %v", err)
	}
	srv := New(net, Config{Topology: "chain", Shards: 2, Scenario: "reliable", Seed: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return net, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestRouteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 8)

	var rr routeResponse
	if code := getJSON(t, ts.URL+"/route/7", &rr); code != http.StatusOK {
		t.Fatalf("GET /route/7 = %d", code)
	}
	if rr.Src != 7 || rr.Dst != 0 {
		t.Errorf("route src=%d dst=%d, want 7->0", rr.Src, rr.Dst)
	}
	if rr.Hops != len(rr.Path)-1 || rr.Path[0] != 7 || rr.Path[len(rr.Path)-1] != 0 {
		t.Errorf("inconsistent path %v (hops %d)", rr.Path, rr.Hops)
	}
	if rr.Epoch == 0 {
		t.Error("published snapshot must carry a nonzero epoch")
	}

	// Routing to a custom destination walks the same snapshot.
	if code := getJSON(t, ts.URL+"/route/7?dst=3", &rr); code != http.StatusOK {
		t.Fatalf("GET /route/7?dst=3 = %d", code)
	}
	if rr.Dst != 3 || rr.Path[len(rr.Path)-1] != 3 {
		t.Errorf("custom-dst path %v", rr.Path)
	}

	var e map[string]string
	if code := getJSON(t, ts.URL+"/route/banana", &e); code != http.StatusBadRequest {
		t.Errorf("non-numeric src = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/route/99", &e); code != http.StatusNotFound {
		t.Errorf("unknown src = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/route/3?dst=oops", &e); code != http.StatusBadRequest {
		t.Errorf("bad dst = %d, want 400", code)
	}
}

func TestOrientationEndpoint(t *testing.T) {
	net, ts := newTestServer(t, 6)

	var or orientationResponse
	if code := getJSON(t, ts.URL+"/orientation", &or); code != http.StatusOK {
		t.Fatalf("GET /orientation = %d", code)
	}
	if or.N != 6 || or.Dest != 0 || !or.Quiescent {
		t.Errorf("orientation header: n=%d dest=%d quiescent=%v", or.N, or.Dest, or.Quiescent)
	}
	if len(or.Edges) != 5 {
		t.Fatalf("chain of 6 has 5 edges, got %d", len(or.Edges))
	}
	// Quiescent chain: every edge points toward the destination, so each
	// [from,to] pair has to == from-1.
	for _, e := range or.Edges {
		if e[1] != e[0]-1 {
			t.Errorf("edge %v not destination-oriented on a quiescent chain", e)
		}
	}
	// Orientation must agree with the directly captured snapshot.
	if snap := net.ReadSnapshot(); uint64(or.Epoch) != snap.Epoch {
		t.Errorf("orientation epoch %d, ReadSnapshot epoch %d", or.Epoch, snap.Epoch)
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 5)

	var st statusResponse
	if code := getJSON(t, ts.URL+"/status", &st); code != http.StatusOK {
		t.Fatalf("GET /status = %d", code)
	}
	if st.N != 5 || st.Dest != 0 || !st.Quiescent || st.Partitioned {
		t.Errorf("status %+v", st)
	}
	if st.Config.Topology != "chain" || st.Config.Shards != 2 {
		t.Errorf("config echo %+v", st.Config)
	}
	if st.UptimeSeconds <= 0 {
		t.Error("uptime must be positive")
	}
}

func TestLinksEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 6)

	// A chord 5-0 plus an await publishes a fresh epoch with a 1-hop route.
	var lr linksResponse
	if code := postJSON(t, ts.URL+"/links", linksRequest{Add: [][2]graph.NodeID{{5, 0}}}, &lr); code != http.StatusOK {
		t.Fatalf("POST /links = %d (%+v)", code, lr)
	}
	if lr.Applied != 1 {
		t.Fatalf("applied %d, want 1", lr.Applied)
	}
	var cr map[string]any
	if code := postJSON(t, ts.URL+"/churn", []churnOp{{Op: "await"}}, &cr); code != http.StatusOK {
		t.Fatalf("churn await = %d", code)
	}
	var rr routeResponse
	if code := getJSON(t, ts.URL+"/route/5", &rr); code != http.StatusOK || rr.Hops != 1 {
		t.Fatalf("route after chord: code %d hops %d path %v", code, rr.Hops, rr.Path)
	}

	// Re-adding the same link is a per-op error and a 409 overall.
	if code := postJSON(t, ts.URL+"/links", linksRequest{Add: [][2]graph.NodeID{{5, 0}}}, &lr); code != http.StatusConflict {
		t.Fatalf("duplicate add = %d, want 409", code)
	}
	if lr.Applied != 0 || len(lr.Errors) != 1 {
		t.Errorf("duplicate add response %+v", lr)
	}

	resp, err := http.Post(ts.URL+"/links", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodiesRejected pins the write plane's body cap: a POST
// /links or /churn body over maxBodyBytes is answered 413, and the valid
// add-link at its head is not applied.
func TestOversizedBodiesRejected(t *testing.T) {
	net, err := dist.NewDynamicNetwork(workload.GoodChain(6))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	srv := New(net, Config{})
	pad := strings.Repeat("x", maxBodyBytes)
	for _, c := range []struct{ path, body string }{
		{"/links", `{"add":[[5,0]],"pad":"` + pad + `"}`},
		{"/churn", `[{"op":"add-link","u":5,"v":0},{"op":"await","pad":"` + pad + `"}]`},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body = %d, want 413", c.path, len(c.body), rec.Code)
		}
		if err := net.AwaitQuiescence(); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(net.Snapshot().Links(5), 0) {
			t.Errorf("POST %s: the oversized body's add-link 5-0 was applied", c.path)
		}
	}
}

func TestChurnScriptGrowsNetwork(t *testing.T) {
	_, ts := newTestServer(t, 4)

	var cr struct {
		Results []churnResult `json:"results"`
	}
	script := []churnOp{
		{Op: "add-node"},
		{Op: "add-link", U: 4, V: 0},
		{Op: "await"},
	}
	if code := postJSON(t, ts.URL+"/churn", script, &cr); code != http.StatusOK {
		t.Fatalf("churn = %d (%+v)", code, cr)
	}
	if cr.Results[0].Node != 4 {
		t.Fatalf("minted node %d, want 4", cr.Results[0].Node)
	}
	var rr routeResponse
	if code := getJSON(t, ts.URL+"/route/4", &rr); code != http.StatusOK {
		t.Fatalf("route from new node = %d", code)
	}

	// An unknown op fails the script without aborting later ops.
	script = []churnOp{{Op: "frobnicate"}, {Op: "await"}}
	if code := postJSON(t, ts.URL+"/churn", script, &cr); code != http.StatusConflict {
		t.Errorf("unknown op = %d, want 409", code)
	}
	if cr.Results[0].Error == "" || cr.Results[1].Error != "" {
		t.Errorf("unknown-op results %+v", cr.Results)
	}
}

func TestChurnPartitionIsReportNotFailure(t *testing.T) {
	_, ts := newTestServer(t, 6)

	var cr struct {
		Results []churnResult `json:"results"`
	}
	script := []churnOp{{Op: "fail-link", U: 2, V: 3}, {Op: "await"}}
	if code := postJSON(t, ts.URL+"/churn", script, &cr); code != http.StatusOK {
		t.Fatalf("partitioning churn = %d, want 200 (partition is a report)", code)
	}
	if cr.Results[1].Error == "" {
		t.Error("await over a partition should carry the partition report")
	}

	var st statusResponse
	getJSON(t, ts.URL+"/status", &st)
	if !st.Partitioned || len(st.Cut) != 3 {
		t.Errorf("status after cut: partitioned=%v cut=%v", st.Partitioned, st.Cut)
	}
	// The cut side routes nowhere; the destination side still routes.
	var e map[string]string
	if code := getJSON(t, ts.URL+"/route/5", &e); code != http.StatusNotFound {
		t.Errorf("route from cut side = %d, want 404", code)
	}
	var rr routeResponse
	if code := getJSON(t, ts.URL+"/route/2", &rr); code != http.StatusOK {
		t.Errorf("route from dest side = %d, want 200", code)
	}
}

func TestRouteAfterNodeRemoval(t *testing.T) {
	_, ts := newTestServer(t, 5)

	var cr map[string]any
	script := []churnOp{
		{Op: "add-link", U: 3, V: 0}, // keep 3 connected once 4 goes
		{Op: "remove-node", U: 4},
		{Op: "await"},
	}
	if code := postJSON(t, ts.URL+"/churn", script, &cr); code != http.StatusOK {
		t.Fatalf("removal churn = %d (%v)", code, cr)
	}
	var e map[string]string
	if code := getJSON(t, ts.URL+"/route/4", &e); code != http.StatusNotFound {
		t.Errorf("route from removed node = %d, want 404", code)
	}
	if e["error"] == "" {
		t.Error("removal 404 should explain itself")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 5)

	// Generate some traffic first so the counters exist.
	var rr routeResponse
	getJSON(t, ts.URL+"/route/4", &rr)
	var e map[string]string
	getJSON(t, ts.URL+"/route/banana", &e)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, line := range []string{
		`lrd_requests_total{endpoint="route",class="2xx"} 1`,
		`lrd_requests_total{endpoint="route",class="4xx"} 1`,
		`lrd_request_duration_seconds_bucket{endpoint="route",le="+Inf"} 2`,
		"# TYPE lrd_request_duration_seconds histogram",
		"lrd_epoch ",
		"lrd_epoch_age_seconds ",
		"lrd_nodes 5",
		"lrd_quiescent 1",
		"lrd_steps_total",
		"lrd_uptime_seconds",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, 3)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, 3)
	resp, err := http.Post(ts.URL+"/status", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /status = %d, want 405", resp.StatusCode)
	}
}

// within runs f and fails the test if it has not returned within d. A hung
// call may hold the network's lock, so the caller must not Stop the
// network after a failure here.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// FuzzChurnScript feeds arbitrary bytes to the write plane, as a POST
// /churn script and as a POST /links body, on a fresh four-node chain run
// on one shard and on one node per shard. Every request must be answered
// with a documented status and a JSON body. The network must then settle:
// once every crashed node recovers, the await returns nil or a partition
// report within 10 s, and the published snapshot routes every live,
// linked node outside the reported cut. A leaked in-flight token shows up
// as a hung await, a quiescence reported early as a failed route.
func FuzzChurnScript(f *testing.F) {
	for _, seed := range []string{
		// Removing a node during its own partition detection once left a
		// mark on the dead node that hung the await after the heal.
		`[{"op":"fail-link","u":0,"v":1},{"op":"remove-node","u":1},{"op":"await"},{"op":"add-link","u":0,"v":2},{"op":"await"}]`,
		`[{"op":"crash","u":2},{"op":"fail-link","u":2,"v":3},{"op":"await"},{"op":"recover","u":2},{"op":"await"}]`,
		`[{"op":"add-node"},{"op":"add-link","u":4,"v":3},{"op":"publish"},{"op":"await"}]`,
		`{"add":[[0,2],[1,3]],"fail":[[0,1],[7,8]]}`,
		`[{"op":"frobnicate"}]`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, shards := range []int{1, 4} {
			net, err := dist.NewDynamicNetworkWith(workload.GoodChain(4), dist.DynOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			srv := New(net, Config{})
			for _, path := range []string{"/churn", "/links"} {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				within(t, 10*time.Second, "POST "+path, func() { srv.ServeHTTP(rec, req) })
				switch rec.Code {
				case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
				default:
					t.Fatalf("shards=%d: POST %s = %d", shards, path, rec.Code)
				}
				if !json.Valid(rec.Body.Bytes()) {
					t.Fatalf("shards=%d: POST %s answered non-JSON %q", shards, path, rec.Body.String())
				}
			}
			for u := 0; u < net.Snapshot().NumNodes(); u++ {
				err := net.Recover(graph.NodeID(u))
				if err != nil && !errors.Is(err, dist.ErrNotCrashed) && !errors.Is(err, dist.ErrUnknownNode) {
					t.Fatalf("shards=%d: recover %d: %v", shards, u, err)
				}
			}
			within(t, 10*time.Second, "AwaitQuiescence", func() { err = net.AwaitQuiescence() })
			var pe *dist.PartitionError
			if err != nil && !errors.As(err, &pe) {
				t.Fatalf("shards=%d: await = %v", shards, err)
			}
			snap := net.ReadSnapshot()
			for u := 0; u < snap.NumNodes(); u++ {
				id := graph.NodeID(u)
				if snap.Removed(id) || len(snap.Links(id)) == 0 || (pe != nil && slices.Contains(pe.Cut, id)) {
					continue
				}
				if _, ok := snap.RouteInto(id, snap.Dest, snap.NumNodes()+1, nil); !ok {
					t.Fatalf("shards=%d: no route %d → %d in epoch %d", shards, u, snap.Dest, snap.Epoch)
				}
			}
			net.Stop()
		}
	})
}
