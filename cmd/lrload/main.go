// Command lrload is the load driver for lrd: it hammers GET /route/{src}
// with concurrent workers, optionally applies connectivity-preserving link
// churn through POST /links while doing so, and reports the latency
// distribution (p50/p99/p999/max) as a provenance-stamped experiment
// table — the serving row of the experiment suite.
//
// Usage:
//
//	lrload -addr 127.0.0.1:8080 -requests 20000 -workers 8 \
//	       [-churn] [-seed 1] [-max-p99 50ms] [-json] [-trace trace.json]
//
// With -trace FILE the driver fetches the server's /debug/trace export
// after the load completes (lrd must be running with -flightrec), saving a
// Perfetto-loadable Chrome trace of what the load did to the engine.
//
// The driver reads n, the destination and the deployment provenance from
// GET /status, excludes nodes the snapshot reports as cut off, and treats
// every other route failure or 5xx as a hard error (nonzero exit): under
// quiescence-gated snapshot publication, a route to a connected live node
// must never fail. Churn only flaps chords lrload itself added, so the
// served topology never drops below its base connectivity.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"linkreversal/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lrload:", err)
		os.Exit(1)
	}
}

// status mirrors the fields of lrd's GET /status this driver consumes.
type status struct {
	Epoch       uint64  `json:"epoch"`
	Quiescent   bool    `json:"quiescent"`
	N           int     `json:"n"`
	Dest        int64   `json:"dest"`
	Partitioned bool    `json:"partitioned"`
	Cut         []int64 `json:"cut"`
	Config      struct {
		Topology string `json:"topology"`
		Scenario string `json:"scenario"`
		Seed     int64  `json:"seed"`
	} `json:"config"`
}

type routeReply struct {
	Epoch uint64  `json:"epoch"`
	Hops  int     `json:"hops"`
	Path  []int64 `json:"path"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lrload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "lrd address (host:port)")
		requests = fs.Int("requests", 5000, "total route queries to issue")
		workers  = fs.Int("workers", 8, "concurrent query workers")
		seed     = fs.Int64("seed", 1, "seed for source selection and churn")
		churn    = fs.Bool("churn", false, "flap lrload-owned chord links during the run")
		maxP99   = fs.Duration("max-p99", 0, "fail if route p99 exceeds this (0 = no bound)")
		jsonOut  = fs.Bool("json", false, "emit the result table as JSON instead of text")
		traceOut = fs.String("trace", "", "after the run, fetch the server's /debug/trace into this file (requires lrd -flightrec)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *requests <= 0 || *workers <= 0 {
		return fmt.Errorf("requests and workers must be positive")
	}
	base := "http://" + *addr

	var st status
	if err := getJSON(base+"/status", &st); err != nil {
		return fmt.Errorf("reading /status: %w", err)
	}
	if st.N < 2 {
		return fmt.Errorf("server reports %d nodes", st.N)
	}
	cut := make(map[int64]bool, len(st.Cut))
	for _, u := range st.Cut {
		cut[u] = true
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	var churnOps atomic.Int64
	if *churn {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			flapChords(base, st.N, *seed, stop, &churnOps)
		}()
	}

	// Fan the request budget across workers, each with its own RNG and
	// latency profile, merged after the barrier — workers stay
	// lock-disjoint on the hot path.
	var (
		wg        sync.WaitGroup
		profiles  = make([]*trace.LatencyProfile, *workers)
		failures  atomic.Int64 // route 404s to non-cut nodes
		serverErr atomic.Int64 // 5xx responses
		maxEpoch  atomic.Uint64
	)
	perWorker := (*requests + *workers - 1) / *workers
	for w := 0; w < *workers; w++ {
		profiles[w] = &trace.LatencyProfile{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			client := &http.Client{Timeout: 30 * time.Second}
			p := profiles[w]
			for i := 0; i < perWorker; i++ {
				src := int64(rng.Intn(st.N))
				if cut[src] {
					continue
				}
				start := time.Now()
				resp, err := client.Get(fmt.Sprintf("%s/route/%d", base, src))
				if err != nil {
					serverErr.Add(1)
					continue
				}
				var reply routeReply
				derr := json.NewDecoder(resp.Body).Decode(&reply)
				resp.Body.Close()
				p.Record(time.Since(start))
				switch {
				case resp.StatusCode >= 500:
					serverErr.Add(1)
				case resp.StatusCode != http.StatusOK:
					failures.Add(1)
				case derr != nil:
					serverErr.Add(1)
				default:
					for {
						old := maxEpoch.Load()
						if reply.Epoch <= old || maxEpoch.CompareAndSwap(old, reply.Epoch) {
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()

	if *traceOut != "" {
		// Grab the execution trace while the run's events are still in the
		// recorder's rings — the whole point of -trace is capturing what the
		// load we just generated did to the engine.
		if err := fetchTrace(base, *traceOut); err != nil {
			return fmt.Errorf("fetching /debug/trace: %w", err)
		}
	}

	var total trace.LatencyProfile
	for _, p := range profiles {
		total.Merge(p)
	}

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	tb := trace.NewTable(
		fmt.Sprintf("E13: serving latency — %s, %s network", st.Config.Topology, st.Config.Scenario),
		"requests", "workers", "churn-ops", "failed-routes", "5xx",
		"p50-ms", "p99-ms", "p999-ms", "max-ms",
	)
	tb.SetProvenance(st.Config.Scenario, st.Config.Seed)
	tb.MustAddRow(
		trace.I(total.Count()), trace.I(*workers), trace.I(int(churnOps.Load())),
		trace.I(int(failures.Load())), trace.I(int(serverErr.Load())),
		trace.F(ms(total.Quantile(0.5))), trace.F(ms(total.Quantile(0.99))),
		trace.F(ms(total.Quantile(0.999))), trace.F(ms(total.Max())),
	)
	if *jsonOut {
		if err := trace.WriteJSON(out, []*trace.Table{tb}); err != nil {
			return err
		}
	} else {
		if err := tb.Render(out); err != nil {
			return err
		}
	}

	if n := serverErr.Load(); n > 0 {
		return fmt.Errorf("%d server errors", n)
	}
	if n := failures.Load(); n > 0 {
		return fmt.Errorf("%d failed routes to live connected nodes", n)
	}
	if *maxP99 > 0 && total.Quantile(0.99) > *maxP99 {
		return fmt.Errorf("route p99 %v exceeds bound %v", total.Quantile(0.99), *maxP99)
	}
	return nil
}

// flapChords applies connectivity-preserving churn: it adds a random chord
// and later fails it — only chords lrload successfully added are ever
// failed, so the base topology's connectivity is never reduced.
func flapChords(base string, n int, seed int64, stop <-chan struct{}, ops *atomic.Int64) {
	rng := rand.New(rand.NewSource(seed))
	client := &http.Client{Timeout: 30 * time.Second}
	type edge [2]int64
	post := func(body map[string][]edge) (applied int) {
		raw, _ := json.Marshal(body)
		resp, err := client.Post(base+"/links", "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0
		}
		var lr struct {
			Applied int `json:"applied"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&lr)
		resp.Body.Close()
		return lr.Applied
	}
	var owned []edge
	for i := 0; ; i++ {
		select {
		case <-stop:
			// Restore the base topology before leaving.
			for _, e := range owned {
				post(map[string][]edge{"fail": {e}})
			}
			return
		default:
		}
		if len(owned) > 0 && (i%2 == 1 || len(owned) >= 8) {
			e := owned[len(owned)-1]
			owned = owned[:len(owned)-1]
			ops.Add(int64(post(map[string][]edge{"fail": {e}})))
			continue
		}
		u, v := int64(rng.Intn(n)), int64(rng.Intn(n))
		if u == v {
			continue
		}
		e := edge{u, v}
		if applied := post(map[string][]edge{"add": {e}}); applied == 1 {
			owned = append(owned, e)
			ops.Add(1)
		}
	}
}

// fetchTrace downloads the server's Chrome trace-event export to path.
func fetchTrace(base, path string) error {
	resp, err := http.Get(base + "/debug/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/trace: %s (is lrd running with -flightrec?)", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
