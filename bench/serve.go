package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	lr "linkreversal"
	"linkreversal/internal/graph"
	"linkreversal/internal/trace"
)

// serveSpec is one serving workload: lrd on a grid under a fault scenario,
// driven over loopback by one process holding two connections (nproc = 2):
// two readers, or one churn writer and one reader.
type serveSpec struct {
	faults string // lrd -faults
	churn  bool
}

var (
	readServe  = serveSpec{faults: "none"}
	churnServe = serveSpec{faults: "flaky", churn: true}
)

func (ss serveSpec) lrdArgs(e *env) []string {
	return []string{
		"-topo", "grid", "-n", strconv.Itoa(e.size.ServeN),
		"-engine", "sharded", "-shards", "2", "-partition", "block",
		"-faults", ss.faults, "-seed", strconv.FormatInt(e.seed, 10),
		"-publish", "5ms",
	}
}

func (ss serveSpec) adversary(seed int64) *lr.NetworkAdversary {
	if ss.faults == "flaky" {
		return lr.FlakyNetwork(seed)
	}
	return nil
}

// grid mirrors the r×c grid lrd builds for "-topo grid -n N", so the
// benchmark can pick links and check that routes use only grid links.
// The first /status of every run checks the node count against it.
type grid struct{ r, c int }

func gridFor(n int) grid {
	r := int(math.Sqrt(float64(n)))
	return grid{r: r, c: (n + r - 1) / r}
}

func (g grid) nodes() int { return g.r * g.c }

func (g grid) isLink(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	if a < 0 || b >= g.nodes() {
		return false
	}
	return (b == a+1 && b%g.c != 0) || b == a+g.c
}

// randomLink returns a uniformly random link of the grid.
func (g grid) randomLink(rng *rand.Rand) (int, int) {
	horizontal := g.r * (g.c - 1)
	k := rng.Intn(horizontal + (g.r-1)*g.c)
	if k < horizontal {
		u := k/(g.c-1)*g.c + k%(g.c-1)
		return u, u + 1
	}
	u := k - horizontal
	return u, u + g.c
}

// conn is one HTTP client pinned to one keep-alive connection.
type conn struct {
	base   string
	client *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do issues one request and returns the status, the body, and the time
// from sending to the last body byte.
func (c *conn) do(method, path, body string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	t := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	d := time.Since(t)
	resp.Body.Close()
	return resp.StatusCode, b, d, err
}

func (c *conn) getJSON(path string, v any) error {
	code, b, _, err := c.do("GET", path, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, b)
	}
	return json.Unmarshal(b, v)
}

type statusReply struct {
	Epoch       uint64 `json:"epoch"`
	Quiescent   bool   `json:"quiescent"`
	N           int    `json:"n"`
	Dest        int    `json:"dest"`
	Partitioned bool   `json:"partitioned"`
}

// checkStatus validates /status: the expected grid, quiescent, and every
// node connected to the destination.
func checkStatus(c *conn, g grid) (statusReply, error) {
	var st statusReply
	if err := c.getJSON("/status", &st); err != nil {
		return st, err
	}
	if st.N != g.nodes() || !st.Quiescent || st.Partitioned {
		return st, fmt.Errorf("/status n=%d (want %d) quiescent=%v partitioned=%v", st.N, g.nodes(), st.Quiescent, st.Partitioned)
	}
	return st, nil
}

type routeReply struct {
	Epoch uint64 `json:"epoch"`
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Hops  int    `json:"hops"`
	Path  []int  `json:"path"`
}

// reader issues GET /route/{uniform src} and checks every answer. It keeps
// the last epoch it saw, since epochs on one connection must not go back.
type reader struct {
	conn      *conn
	g         grid
	dest      int
	rng       *rand.Rand
	lastEpoch uint64
}

func (rd *reader) read() (time.Duration, error) {
	src := rd.rng.Intn(rd.g.nodes())
	code, body, d, err := rd.conn.do("GET", "/route/"+strconv.Itoa(src), "")
	if err != nil {
		return d, err
	}
	if code != http.StatusOK {
		return d, fmt.Errorf("GET /route/%d: status %d: %s", src, code, body)
	}
	var rep routeReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return d, fmt.Errorf("GET /route/%d: %w", src, err)
	}
	return d, rd.check(src, rep)
}

func (rd *reader) check(src int, rep routeReply) error {
	p := rep.Path
	switch {
	case len(p) == 0 || p[0] != src || p[len(p)-1] != rd.dest:
		return fmt.Errorf("route from %d: path does not run from src to %d: %v", src, rd.dest, p)
	case rep.Hops != len(p)-1:
		return fmt.Errorf("route from %d: hops %d for a path of %d nodes", src, rep.Hops, len(p))
	case rep.Epoch < rd.lastEpoch:
		return fmt.Errorf("route from %d: epoch went back from %d to %d", src, rd.lastEpoch, rep.Epoch)
	}
	for i := 1; i < len(p); i++ {
		if !rd.g.isLink(p[i-1], p[i]) {
			return fmt.Errorf("route from %d: hop %d-%d is not a grid link", src, p[i-1], p[i])
		}
	}
	rd.lastEpoch = rep.Epoch
	return nil
}

// churner flaps uniformly random grid links: POST /churn fails one and
// awaits the epoch that publishes the repair, then adds it back the same
// way. At most one link is down at a time and the grid is 2-edge-connected,
// so the network never partitions.
type churner struct {
	conn *conn
	g    grid
	rng  *rand.Rand
}

type churnReply struct {
	Results []struct {
		Op    string `json:"op"`
		Error string `json:"error"`
	} `json:"results"`
}

// flap applies one fail/add pair and returns the POSTs that succeeded, each
// with its end measured from start.
func (ch *churner) flap(o *outcome, sp *recorder, id int64, start time.Time) []opSample {
	var ops []opSample
	u, v := ch.g.randomLink(ch.rng)
	for _, op := range []string{"fail-link", "add-link"} {
		body := fmt.Sprintf(`[{"op":%q,"u":%d,"v":%d},{"op":"await"}]`, op, u, v)
		h := sp.begin("http.churn", id, -1)
		code, b, d, err := ch.conn.do("POST", "/churn", body)
		sp.end(h)
		if err == nil {
			err = checkChurn(code, b)
		}
		if o.record(err) == nil {
			ops = append(ops, opSample{end: time.Since(start), lat: d})
		}
	}
	return ops
}

func checkChurn(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("POST /churn: status %d: %s", code, body)
	}
	var rep churnReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("POST /churn: %w", err)
	}
	if len(rep.Results) != 2 {
		return fmt.Errorf("POST /churn: %d results for 2 ops", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Error != "" {
			return fmt.Errorf("POST /churn %s: %s", r.Op, r.Error)
		}
	}
	return nil
}

// loadGen is the load of one serving run: its readers and, for
// serve-churn, its churner. They persist across the warm-up and the
// window, so the epoch check spans both.
type loadGen struct {
	readers []*reader
	churner *churner
}

func (ss serveSpec) newLoad(base string, g grid, dest int, seed int64) *loadGen {
	lg := &loadGen{}
	nReaders := 2
	if ss.churn {
		nReaders = 1
		lg.churner = &churner{conn: newConn(base), g: g, rng: rand.New(rand.NewSource(seed))}
	}
	for i := 0; i < nReaders; i++ {
		lg.readers = append(lg.readers, &reader{
			conn: newConn(base), g: g, dest: dest,
			rng: rand.New(rand.NewSource(seed*16 + int64(i) + 1)),
		})
	}
	return lg
}

func (lg *loadGen) close() {
	for _, rd := range lg.readers {
		rd.conn.close()
	}
	if lg.churner != nil {
		lg.churner.conn.close()
	}
}

// run drives every connection in a closed loop for d and returns the reads
// and churn ops that succeeded, each with its end measured from the start,
// and the checked operations.
func (lg *loadGen) run(ctx context.Context, d time.Duration, sp *recorder) (reads, churns []opSample, o *outcome) {
	var wg sync.WaitGroup
	last := len(lg.readers)
	outs := make([]*outcome, last+1)
	ops := make([][]opSample, last+1)
	for i := range outs {
		outs[i] = newOutcome()
	}
	start := time.Now()
	live := func() bool { return ctx.Err() == nil && time.Since(start) < d }
	for i, rd := range lg.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int64(i) << 40; live(); id++ {
				h := sp.begin("http.route", id, -1)
				lat, err := rd.read()
				sp.end(h)
				if outs[i].record(err) == nil {
					ops[i] = append(ops[i], opSample{end: time.Since(start), lat: lat})
				}
			}
		}()
	}
	if lg.churner != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int64(1); live(); id++ {
				ops[last] = append(ops[last], lg.churner.flap(outs[last], sp, id, start)...)
			}
		}()
	}
	wg.Wait()
	o = newOutcome()
	for _, out := range outs {
		o.merge(out)
	}
	return slices.Concat(ops[:last]...), ops[last], o
}

// latencies returns the latencies of ops as a profile.
func latencies(ops []opSample) *trace.LatencyProfile {
	var p trace.LatencyProfile
	for _, op := range ops {
		p.Record(op.lat)
	}
	return &p
}

func (o *outcome) merge(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, e := range p.errs {
		if len(o.errs) < 10 {
			o.errs = append(o.errs, e)
		}
	}
}

// lrdVars is the part of lrd's /debug/vars the benchmark reads.
type lrdVars struct {
	Memstats struct {
		TotalAlloc   uint64 `json:"TotalAlloc"`
		NumGC        uint32 `json:"NumGC"`
		PauseTotalNs uint64 `json:"PauseTotalNs"`
	} `json:"memstats"`
}

// routeHistogram reads the sum (seconds) and count of lrd's route latency
// histogram from /metrics.
func routeHistogram(c *conn) (sum, count float64, err error) {
	code, b, _, err := c.do("GET", "/metrics", "")
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d", code)
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case `lrd_request_duration_seconds_sum{endpoint="route"}`:
			dst = &sum
		case `lrd_request_duration_seconds_count{endpoint="route"}`:
			dst = &count
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return 0, 0, fmt.Errorf("GET /metrics: %s: %w", name, err)
		}
		found++
	}
	if found != 2 {
		return 0, 0, errors.New("GET /metrics: no route latency histogram")
	}
	return sum, count, nil
}

// boot starts lrd e.size.Setups times (once when traced, which does not
// report setup_s), stopping all but the last, and returns the last daemon
// with the median boot time.
func (ss serveSpec) boot(ctx context.Context, e *env) (*daemon, float64, error) {
	times := make([]float64, e.size.Setups)
	if e.traced {
		times = times[:1]
	}
	var d *daemon
	for i := range times {
		h := e.spans.begin("lrd.boot", int64(i), -1)
		var dur time.Duration
		var err error
		d, dur, err = startDaemon(ctx, e.lrd, ss.lrdArgs(e))
		e.spans.end(h)
		if err != nil {
			return nil, 0, err
		}
		times[i] = seconds(dur)
		if i < len(times)-1 {
			if _, err := d.stop(); err != nil {
				return nil, 0, err
			}
		}
	}
	return d, median(times), nil
}

// run measures one serving workload: boot lrd, check it, warm up, then run
// the closed-loop load for the window and check the final state.
func (ss serveSpec) run(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	g := gridFor(e.size.ServeN)
	if e.traced {
		if err := ss.inProcess(ctx, e, g, o); err != nil {
			return nil, err
		}
		if o.failed > 0 {
			return o, nil
		}
	}
	d, setup, err := ss.boot(ctx, e)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ctl := newConn(d.base)
	defer ctl.close()
	st, err := checkStatus(ctl, g)
	if o.record(err) != nil {
		return o, nil
	}
	lg := ss.newLoad(d.base, g, st.Dest, e.seed)
	defer lg.close()

	_, _, wo := lg.run(ctx, e.size.Warmup, nil)
	o.merge(wo)
	var before, after lrdVars
	if err := ctl.getJSON("/debug/vars", &before); err != nil {
		return nil, err
	}
	sumBefore, countBefore, err := routeHistogram(ctl)
	if err != nil {
		return nil, err
	}
	reads, churns, lo := lg.run(ctx, e.window, e.spans)
	o.merge(lo)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ctl.getJSON("/debug/vars", &after); err != nil {
		return nil, err
	}
	sumAfter, countAfter, err := routeHistogram(ctl)
	if err != nil {
		return nil, err
	}
	_, err = checkStatus(ctl, g)
	o.record(err)
	lg.close()
	ctl.close()
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}

	rd, ch := summarize(latencies(reads)), summarize(latencies(churns))
	ops, op := reads, rd
	if ss.churn {
		ops, op = churns, ch
	}
	q := quiet(windowSlices(ops, e.window))
	fmt.Fprintf(e.log, "reads: n=%d p50 %v %s %v; churn ops: n=%d p50 %v %s %v; quietest quarter: %d ops, p50 %v\n",
		rd.N, rd.P50, quantileLabel(rd.TailQ), rd.Tail, ch.N, ch.P50, quantileLabel(ch.TailQ), ch.Tail, q.N, q.P50)
	if o.record(errIf(q.N == 0, "no operation completed in the window")) != nil {
		return o, nil
	}
	if !e.traced {
		o.values = map[string]float64{
			"setup_s":         setup,
			"op_p50_ms":       millis(q.P50),
			"ops_per_s":       q.OpsPerS,
			"alloc_mb_per_op": float64(after.Memstats.TotalAlloc-before.Memstats.TotalAlloc) / 1e6 / float64(len(ops)),
			"max_rss_mb":      rss,
		}
		return o, nil
	}
	o.values["op_tail_ms"] = millis(op.Tail)
	o.values["serve.gc_cycles"] = float64(after.Memstats.NumGC - before.Memstats.NumGC)
	o.values["serve.gc_pause_ms"] = float64(after.Memstats.PauseTotalNs-before.Memstats.PauseTotalNs) / 1e6
	if countAfter > countBefore {
		o.values["serve.handler_mean_us_live"] = (sumAfter - sumBefore) / (countAfter - countBefore) * 1e6
	}
	o.values["serve.read_p50_us"] = micros(rd.P50)
	o.values["serve.read_tail_us"] = micros(rd.Tail)
	return o, nil
}

// inProcess measures the serving layers by calling them directly on an
// in-process network built like lrd's: construction and stabilization,
// link ops with the publication that follows, snapshot cost with and
// without an adjacency rebuild, RouteInto, and the HTTP handler.
func (ss serveSpec) inProcess(ctx context.Context, e *env, g grid, o *outcome) error {
	sp := e.spans
	o.values = zeroValues(perLayer)
	h := sp.begin("dist.dyn_build", 0, -1)
	t := time.Now()
	network, err := lr.NewDynamicNetworkWith(lr.Grid(g.r, g.c), lr.DynNetOptions{
		Engine: lr.DistSharded, Shards: 2, Partition: lr.DistPartitionBlock,
		Adversary: ss.adversary(e.seed), PublishEvery: 5 * time.Millisecond,
	})
	o.values["dist.dyn_build_s"] = seconds(time.Since(t))
	sp.end(h)
	if err != nil {
		return err
	}
	defer network.Stop()
	h = sp.begin("dist.stabilize", 0, -1)
	t = time.Now()
	err = network.AwaitQuiescence()
	o.values["dist.stabilize_s"] = seconds(time.Since(t))
	sp.end(h)
	if o.record(err) != nil {
		return nil
	}
	first := network.Snapshot()
	o.values["dist.dyn_retransmits"] = float64(first.Retransmits)

	rng := rand.New(rand.NewSource(e.seed))
	var linkOp, publish, dirty, clean []time.Duration
	var allocMB []float64
	timed := func(layer string, id int64, parent int, out *[]time.Duration, f func() error) error {
		h := sp.begin(layer, id, parent)
		t := time.Now()
		err := f()
		if out != nil {
			*out = append(*out, time.Since(t))
		}
		sp.end(h)
		return err
	}
	snapshot := func() error { network.Snapshot(); return nil }
	for id := int64(1); id <= int64(e.size.ChurnRounds); id++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		u, v := g.randomLink(rng)
		nu, nv := graph.NodeID(u), graph.NodeID(v)
		root := sp.begin("churn.round", id, -1)
		before := memAlloc()
		err := errors.Join(
			timed("dist.link_op", id, root, &linkOp, func() error { return network.FailLink(nu, nv) }),
			timed("dist.publish", id, root, &publish, network.AwaitQuiescence))
		allocMB = append(allocMB, float64(memAlloc()-before)/1e6)
		err = errors.Join(err,
			timed("dist.link_op", id, root, &linkOp, func() error { return network.AddLink(nu, nv) }),
			timed("dist.snapshot", id, root, &dirty, snapshot),
			timed("dist.publish", id, root, nil, network.AwaitQuiescence),
			timed("dist.snapshot", id, root, &clean, snapshot))
		sp.end(root)
		if o.record(err) != nil {
			return nil
		}
	}
	last := network.Snapshot()
	ops := float64(2 * e.size.ChurnRounds)
	o.values["dist.link_op_us"] = micros(durMedian(linkOp))
	o.values["dist.publish_ms"] = millis(durMedian(publish))
	o.values["dist.snapshot_clean_ms"] = millis(durMedian(clean))
	o.values["dist.adj_rebuild_ms"] = millis(durMedian(dirty) - durMedian(clean))
	o.values["dist.steps_per_churn"] = float64(last.Steps-first.Steps) / ops
	o.values["dist.msgs_per_churn"] = float64(last.Messages-first.Messages) / ops
	o.values["dist.alloc_per_churn_mb"] = median(allocMB)

	snap := network.ReadSnapshot()
	n := snap.NumNodes()
	buf := make([]graph.NodeID, 0, 4*g.r+4*g.c)
	hops := 0
	h = sp.begin("snapshot.route", 0, -1)
	t = time.Now()
	for i := 0; i < e.size.RouteCalls; i++ {
		path, ok := snap.RouteInto(graph.NodeID(rng.Intn(n)), snap.Dest, n, buf)
		if !ok {
			o.record(errors.New("RouteInto found no route on a quiescent connected snapshot"))
			return nil
		}
		hops += len(path) - 1
	}
	o.values["snapshot.route_ns"] = float64(time.Since(t)) / float64(e.size.RouteCalls)
	sp.end(h)
	o.values["snapshot.route_hops"] = float64(hops) / float64(e.size.RouteCalls)

	srv := lr.NewRouteServer(network, lr.ServeConfig{})
	handler := make([]time.Duration, e.size.HandlerCalls)
	bytes := 0
	for i := range handler {
		req := httptest.NewRequest("GET", "/route/"+strconv.Itoa(rng.Intn(n)), nil)
		rec := httptest.NewRecorder()
		h := sp.begin("serve.handler", int64(i), -1)
		t := time.Now()
		srv.ServeHTTP(rec, req)
		handler[i] = time.Since(t)
		sp.end(h)
		if o.record(errIf(rec.Code != http.StatusOK, "handler: status %d: %s", rec.Code, rec.Body)) != nil {
			return nil
		}
		bytes += rec.Body.Len()
	}
	o.values["serve.handler_us"] = micros(durMedian(handler))
	o.values["serve.route_bytes"] = float64(bytes) / float64(len(handler))
	return nil
}
