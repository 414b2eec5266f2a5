// Package serve is the serving layer over a live DynamicNetwork: a
// long-running HTTP service ("lrd") that answers concurrent route,
// orientation and status queries while link-reversal repair runs
// underneath — the ROADMAP's "continuous ingest, concurrent readers,
// periodic reports" shape.
//
// The design splits the traffic into two planes that never contend:
//
//   - The read plane (GET /route/{src}, /orientation, /status, /metrics)
//     serves exclusively from epoch snapshots: immutable global states the
//     network's serialized control plane publishes through one atomic
//     pointer (dist.DynamicNetwork.ReadSnapshot). A route query is an
//     atomic load plus an O(path) walk down strictly decreasing heights —
//     no protocol lock, no allocation on the walk itself (the path buffer
//     is pooled), no interference with repair, pinned by race-enabled
//     stress tests and a testing.AllocsPerRun bound in internal/dist.
//   - The write plane (POST /links, POST /churn) forwards topology
//     changes to the network's control plane, which serializes them
//     against the protocol exactly as direct AddLink/FailLink calls do.
//
// Because publications are quiescence-gated, every snapshot the read
// plane serves is a consistent global state: acyclic, and
// destination-oriented within every component connected to the
// destination, so a route query can fail only for a node that is truly
// cut off (the snapshot's Cut set names exactly those). Readers may
// observe a stale epoch while churn is in flight — never a torn one.
//
// GET /metrics exposes Prometheus text-format counters (request and
// latency histograms per endpoint plus the protocol's cumulative cost and
// fault counters) without importing a metrics dependency; see
// docs/OPERATIONS.md for the complete metrics reference and an example
// operator session.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"linkreversal/internal/dist"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

// Config carries the deployment's descriptive provenance — echoed by
// GET /status and stamped by lrload into latency tables, so every recorded
// measurement names the shard layout and fault scenario it was taken
// under.
type Config struct {
	// Topology names the served topology (e.g. "grid 100x100").
	Topology string `json:"topology,omitempty"`
	// Shards is the configured shard count (0 = GOMAXPROCS).
	Shards int `json:"shards,omitempty"`
	// Partition is the node-to-shard assignment scheme.
	Partition string `json:"partition,omitempty"`
	// Scenario is the fault scenario ("reliable", "lossy", "flaky", ...).
	Scenario string `json:"scenario,omitempty"`
	// Seed is the fault adversary's seed.
	Seed int64 `json:"seed"`
	// PublishEveryMS is the epoch-snapshot publication cadence in
	// milliseconds (0 = quiescence-only publication).
	PublishEveryMS int64 `json:"publish_every_ms,omitempty"`
	// Observer is the engine observer armed on the served network, if any.
	// When set, GET /metrics grows the lrd_shard_* families, GET
	// /debug/events serves the flight recorder's decoded tail and GET
	// /debug/trace exports it as a Chrome trace-event file. Operational,
	// not provenance: excluded from the /status echo.
	Observer *obs.Observer `json:"-"`
	// Pprof enables the net/http/pprof handlers under GET /debug/pprof/.
	// Off by default: profiling endpoints on a routing daemon are a
	// deliberate operator choice.
	Pprof bool `json:"-"`
}

// Server is the HTTP serving layer over one DynamicNetwork. Create it
// with New, expose Handler on any http.Server, and Stop the underlying
// network when done — the Server itself holds no goroutines.
type Server struct {
	net     *dist.DynamicNetwork
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	bufs    sync.Pool // route path buffers: *[]graph.NodeID
}

// New builds the serving layer over net. The network stays owned by the
// caller (including Stop); cfg is descriptive only.
func New(net *dist.DynamicNetwork, cfg Config) *Server {
	s := &Server{
		net:     net,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: newMetrics(),
	}
	s.bufs.New = func() any {
		buf := make([]graph.NodeID, 0, 256)
		return &buf
	}
	s.mux.Handle("GET /route/{src}", s.instrument("route", s.handleRoute))
	s.mux.Handle("GET /orientation", s.instrument("orientation", s.handleOrientation))
	s.mux.Handle("GET /status", s.instrument("status", s.handleStatus))
	s.mux.Handle("POST /links", s.instrument("links", s.handleLinks))
	s.mux.Handle("POST /churn", s.instrument("churn", s.handleChurn))
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.registerDebug()
	return s
}

// Handler returns the http.Handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler directly, so a Server can be passed
// anywhere a handler is expected.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// instrument wraps a handler with request counting and latency recording
// for the endpoint's metrics series.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := h(w, r)
		s.metrics.observe(endpoint, code, time.Since(start))
	})
}

// writeJSON emits v with the given status code and returns the code for
// the instrumentation wrapper.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
	return code
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) int {
	return writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps the request bodies of POST /links and /churn. Bodies
// are decoded in full before any operation applies, so an oversized one
// is answered 413 and changes nothing.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it writes the error response — 413 for an oversized body, 400
// for malformed JSON — and returns its status; it returns 0 on success.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) int {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return writeError(w, http.StatusRequestEntityTooLarge, "%s over %d bytes", what, tooBig.Limit)
	case err != nil:
		return writeError(w, http.StatusBadRequest, "bad %s: %v", what, err)
	}
	return 0
}

// routeResponse is the GET /route/{src} success body.
type routeResponse struct {
	Epoch uint64         `json:"epoch"`
	Src   graph.NodeID   `json:"src"`
	Dst   graph.NodeID   `json:"dst"`
	Hops  int            `json:"hops"`
	Path  []graph.NodeID `json:"path"`
}

// handleRoute is the lock-free hot path: one atomic snapshot load, one
// O(path) height-descent walk into a pooled buffer, one JSON encode.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) int {
	src64, err := strconv.ParseInt(r.PathValue("src"), 10, 64)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad src %q: not a node ID", r.PathValue("src"))
	}
	snap := s.net.ReadSnapshot()
	n := snap.NumNodes()
	src := graph.NodeID(src64)
	dst := snap.Dest
	if q := r.URL.Query().Get("dst"); q != "" {
		d64, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			return writeError(w, http.StatusBadRequest, "bad dst %q: not a node ID", q)
		}
		dst = graph.NodeID(d64)
	}
	if int(src) < 0 || int(src) >= n || int(dst) < 0 || int(dst) >= n {
		return writeError(w, http.StatusNotFound, "unknown node: %d nodes exist", n)
	}
	if snap.Removed(src) || snap.Removed(dst) {
		return writeError(w, http.StatusNotFound, "node removed from the network")
	}
	bufp := s.bufs.Get().(*[]graph.NodeID)
	defer s.bufs.Put(bufp)
	path, ok := snap.RouteInto(src, dst, n, *bufp)
	if len(path) > len(*bufp) {
		*bufp = path // keep the grown buffer pooled
	}
	if !ok {
		s.metrics.routeMisses.Add(1)
		return writeError(w, http.StatusNotFound, "no route from %d to %d at epoch %d", src, dst, snap.Epoch)
	}
	return writeJSON(w, http.StatusOK, routeResponse{
		Epoch: snap.Epoch, Src: src, Dst: dst, Hops: len(path) - 1, Path: path,
	})
}

// orientationResponse is the GET /orientation body: every live edge once,
// directed from the higher- to the lower-height endpoint.
type orientationResponse struct {
	Epoch     uint64            `json:"epoch"`
	Quiescent bool              `json:"quiescent"`
	N         int               `json:"n"`
	Dest      graph.NodeID      `json:"dest"`
	Edges     [][2]graph.NodeID `json:"edges"`
}

func (s *Server) handleOrientation(w http.ResponseWriter, r *http.Request) int {
	snap := s.net.ReadSnapshot()
	n := snap.NumNodes()
	resp := orientationResponse{
		Epoch: snap.Epoch, Quiescent: snap.Quiescent, N: n, Dest: snap.Dest,
		Edges: make([][2]graph.NodeID, 0, 2*n),
	}
	for u := 0; u < n; u++ {
		uid := graph.NodeID(u)
		for _, v := range snap.Links(uid) {
			if v < uid {
				continue // each undirected edge once, from its lower endpoint's row
			}
			if snap.Heights[uid].Less(snap.Heights[v]) {
				resp.Edges = append(resp.Edges, [2]graph.NodeID{v, uid})
			} else {
				resp.Edges = append(resp.Edges, [2]graph.NodeID{uid, v})
			}
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// statusResponse is the GET /status body.
type statusResponse struct {
	Epoch         uint64         `json:"epoch"`
	Quiescent     bool           `json:"quiescent"`
	N             int            `json:"n"`
	Dest          graph.NodeID   `json:"dest"`
	Partitioned   bool           `json:"partitioned"`
	Cut           []graph.NodeID `json:"cut,omitempty"`
	Steps         int            `json:"steps"`
	Messages      int            `json:"messages"`
	Reversals     int            `json:"reversals"`
	Drops         int            `json:"drops"`
	Dups          int            `json:"dups"`
	Held          int            `json:"held"`
	Retransmits   int            `json:"retransmits"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Config        Config         `json:"config"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) int {
	snap := s.net.ReadSnapshot()
	return writeJSON(w, http.StatusOK, statusResponse{
		Epoch:         snap.Epoch,
		Quiescent:     snap.Quiescent,
		N:             snap.NumNodes(),
		Dest:          snap.Dest,
		Partitioned:   len(snap.Cut) > 0,
		Cut:           snap.Cut,
		Steps:         snap.Steps,
		Messages:      snap.Messages,
		Reversals:     snap.TotalReversals,
		Drops:         snap.Drops,
		Dups:          snap.Dups,
		Held:          snap.Held,
		Retransmits:   snap.Retransmits,
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Config:        s.cfg,
	})
}

// linksRequest is the POST /links body: link additions and failures,
// applied in order (adds first), each through the serialized control
// plane.
type linksRequest struct {
	Add  [][2]graph.NodeID `json:"add"`
	Fail [][2]graph.NodeID `json:"fail"`
}

// linksResponse reports how many operations applied and the errors of
// those that did not (in request order).
type linksResponse struct {
	Applied int      `json:"applied"`
	Errors  []string `json:"errors,omitempty"`
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) int {
	var req linksRequest
	if code := decodeBody(w, r, &req, "links body"); code != 0 {
		return code
	}
	var resp linksResponse
	apply := func(what string, e [2]graph.NodeID, err error) {
		if err != nil {
			resp.Errors = append(resp.Errors, fmt.Sprintf("%s {%d,%d}: %v", what, e[0], e[1], err))
			return
		}
		resp.Applied++
	}
	for _, e := range req.Add {
		apply("add", e, s.net.AddLink(e[0], e[1]))
	}
	for _, e := range req.Fail {
		apply("fail", e, s.net.FailLink(e[0], e[1]))
	}
	s.metrics.churnOps.Add(int64(resp.Applied))
	code := http.StatusOK
	if len(resp.Errors) > 0 {
		code = http.StatusConflict
	}
	return writeJSON(w, code, resp)
}

// churnOp is one operation of a POST /churn script.
type churnOp struct {
	// Op is one of add-link, fail-link, add-node, remove-node, crash,
	// recover, await, publish.
	Op string       `json:"op"`
	U  graph.NodeID `json:"u,omitempty"`
	V  graph.NodeID `json:"v,omitempty"`
}

// churnResult reports one operation's outcome.
type churnResult struct {
	Op string `json:"op"`
	// Node carries the ID minted by add-node.
	Node graph.NodeID `json:"node,omitempty"`
	// Error is empty on success. An await against a partitioned network
	// reports the partition here (the script keeps running).
	Error string `json:"error,omitempty"`
}

func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) int {
	var script []churnOp
	if code := decodeBody(w, r, &script, "churn script"); code != 0 {
		return code
	}
	results := make([]churnResult, 0, len(script))
	failed := false
	for _, op := range script {
		res := churnResult{Op: op.Op}
		var err error
		switch op.Op {
		case "add-link":
			err = s.net.AddLink(op.U, op.V)
		case "fail-link":
			err = s.net.FailLink(op.U, op.V)
		case "add-node":
			res.Node, err = s.net.AddNode()
		case "remove-node":
			err = s.net.RemoveNode(op.U)
		case "crash":
			err = s.net.Crash(op.U)
		case "recover":
			err = s.net.Recover(op.U)
		case "await":
			err = s.net.AwaitQuiescence()
		case "publish":
			s.net.PublishSnapshot()
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			res.Error = err.Error()
			var pe *dist.PartitionError
			if !errors.As(err, &pe) {
				failed = true // partitions are reports, not script failures
			}
		} else if op.Op != "await" && op.Op != "publish" {
			s.metrics.churnOps.Add(1)
		}
		results = append(results, res)
	}
	code := http.StatusOK
	if failed {
		code = http.StatusConflict
	}
	return writeJSON(w, code, map[string]any{"results": results})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.render(w, s.net.ReadSnapshot())
	renderShardMetrics(w, s.cfg.Observer)
	return http.StatusOK
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
	return http.StatusOK
}
