package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"linkreversal/internal/dist"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning the
// sub-microsecond snapshot walks up to pathological seconds-long stalls.
var latencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// endpointStats accumulates one endpoint's request classes and latency
// histogram with atomics only, so the hot route path never takes a lock
// to be observed.
type endpointStats struct {
	byClass [6]atomic.Int64 // index = status/100 (1xx..5xx); [0] unused
	buckets []atomic.Int64  // cumulative-at-render; stored per-bucket
	sumNS   atomic.Int64
	count   atomic.Int64
}

func (e *endpointStats) observe(code int, d time.Duration) {
	cls := code / 100
	if cls < 1 || cls > 5 {
		cls = 5
	}
	e.byClass[cls].Add(1)
	sec := d.Seconds()
	for i, ub := range latencyBuckets {
		if sec <= ub {
			e.buckets[i].Add(1)
			break
		}
	}
	e.sumNS.Add(int64(d))
	e.count.Add(1)
}

// metrics is the server's whole instrumentation state; render writes it in
// Prometheus text exposition format without any metrics dependency.
type metrics struct {
	start       time.Time
	routeMisses atomic.Int64
	churnOps    atomic.Int64

	mu        sync.Mutex
	endpoints map[string]*endpointStats
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), endpoints: make(map[string]*endpointStats)}
}

func (m *metrics) endpoint(name string) *endpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[name]
	if e == nil {
		e = &endpointStats{buckets: make([]atomic.Int64, len(latencyBuckets))}
		m.endpoints[name] = e
	}
	return e
}

func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	m.endpoint(endpoint).observe(code, d)
}

// render writes every series. Gauges that describe the network come from
// the same published snapshot the read plane serves, so a scrape is
// consistent with concurrent /status responses at the same epoch.
func (m *metrics) render(w io.Writer, snap *dist.Snapshot) {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	eps := make([]*endpointStats, len(names))
	for i, name := range names {
		eps[i] = m.endpoints[name]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP lrd_requests_total Requests served, by endpoint and status class.\n")
	fmt.Fprintf(w, "# TYPE lrd_requests_total counter\n")
	for i, name := range names {
		for cls := 1; cls <= 5; cls++ {
			if v := eps[i].byClass[cls].Load(); v > 0 {
				fmt.Fprintf(w, "lrd_requests_total{endpoint=%q,class=\"%dxx\"} %d\n", name, cls, v)
			}
		}
	}

	fmt.Fprintf(w, "# HELP lrd_request_duration_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE lrd_request_duration_seconds histogram\n")
	for i, name := range names {
		cum := int64(0)
		for b, ub := range latencyBuckets {
			cum += eps[i].buckets[b].Load()
			fmt.Fprintf(w, "lrd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		fmt.Fprintf(w, "lrd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n",
			name, eps[i].count.Load())
		fmt.Fprintf(w, "lrd_request_duration_seconds_sum{endpoint=%q} %g\n",
			name, float64(eps[i].sumNS.Load())/1e9)
		fmt.Fprintf(w, "lrd_request_duration_seconds_count{endpoint=%q} %d\n",
			name, eps[i].count.Load())
	}

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("lrd_route_misses_total", "Route queries that found no path in the served snapshot.", m.routeMisses.Load())
	counter("lrd_churn_ops_total", "Topology mutations applied through /links and /churn.", m.churnOps.Load())

	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	gauge("lrd_epoch", "Epoch of the currently published snapshot.", float64(snap.Epoch))
	gauge("lrd_epoch_age_seconds", "Seconds since the served snapshot was published.", time.Since(snap.Published).Seconds())
	gauge("lrd_nodes", "Node slots in the published snapshot (including removed).", float64(snap.NumNodes()))
	gauge("lrd_quiescent", "1 when the published snapshot was captured with no message in flight.", b2f(snap.Quiescent))
	gauge("lrd_cut_nodes", "Live nodes with no path to the destination in the published snapshot.", float64(len(snap.Cut)))
	counter("lrd_steps_total", "Cumulative protocol steps executed by the network.", int64(snap.Steps))
	counter("lrd_messages_total", "Cumulative height announcements delivered.", int64(snap.Messages))
	counter("lrd_reversals_total", "Cumulative node reversals performed.", int64(snap.TotalReversals))
	counter("lrd_drops_total", "Messages dropped by the fault adversary.", int64(snap.Drops))
	counter("lrd_dups_total", "Messages duplicated by the fault adversary.", int64(snap.Dups))
	counter("lrd_held_total", "Messages held (delayed) by the fault adversary.", int64(snap.Held))
	counter("lrd_retransmits_total", "Retransmissions recovering from adversary drops.", int64(snap.Retransmits))
	gauge("lrd_uptime_seconds", "Seconds since the server started.", time.Since(m.start).Seconds())
}
