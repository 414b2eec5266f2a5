package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"linkreversal/internal/obs"
)

// registerDebug mounts the introspection surface:
//
//   - GET /debug/vars    — expvar-style JSON (memstats, cmdline, plus an
//     "lrd" object with the published snapshot and per-shard telemetry)
//   - GET /debug/events  — the flight recorder's decoded event tail
//   - GET /debug/trace   — the same tail as a Chrome trace-event file,
//     loadable in Perfetto / chrome://tracing
//   - GET /debug/pprof/* — the standard profiling handlers, only when
//     Config.Pprof is set
//
// /debug/events and /debug/trace answer 404 when no observer is armed, so
// the endpoints are safe to probe unconditionally.
func (s *Server) registerDebug() {
	s.mux.Handle("GET /debug/vars", s.instrument("debug-vars", s.handleVars))
	s.mux.Handle("GET /debug/events", s.instrument("debug-events", s.handleEvents))
	s.mux.Handle("GET /debug/trace", s.instrument("debug-trace", s.handleTrace))
	if s.cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// handleVars writes the expvar variable set as one JSON object. The
// handler renders by hand (expvar.Do) instead of mounting expvar.Handler
// so that multiple Servers in one process never race to expvar.Publish a
// shared name: the "lrd" member is assembled per request from this
// server's network and observer.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value.String())
	})
	snap := s.net.ReadSnapshot()
	lrd := map[string]any{
		"epoch":        snap.Epoch,
		"quiescent":    snap.Quiescent,
		"nodes":        snap.NumNodes(),
		"steps":        snap.Steps,
		"messages":     snap.Messages,
		"reversals":    snap.TotalReversals,
		"route_misses": s.metrics.routeMisses.Load(),
		"churn_ops":    s.metrics.churnOps.Load(),
	}
	if s.cfg.Observer != nil {
		lrd["shards"] = s.cfg.Observer.ShardStats()
	}
	b, err := json.Marshal(lrd)
	if err != nil {
		b = []byte("{}")
	}
	fmt.Fprintf(w, "%q: %s\n}\n", "lrd", b)
	return http.StatusOK
}

// handleEvents serves the flight recorder's decoded tail, newest last.
// ?n= bounds the tail length (default 256, 0 = everything still in the
// rings).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) int {
	o := s.cfg.Observer
	if o == nil {
		return writeError(w, http.StatusNotFound, "no engine observer armed (run lrd with -flightrec)")
	}
	n := 256
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			return writeError(w, http.StatusBadRequest, "bad n %q: want a non-negative integer", q)
		}
		n = v
	}
	events := o.Events(n)
	return writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(events),
		"events": events,
	})
}

// handleTrace exports the flight recorder as a Chrome trace-event file.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) int {
	o := s.cfg.Observer
	if o == nil {
		return writeError(w, http.StatusNotFound, "no engine observer armed (run lrd with -flightrec)")
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="lrd-trace.json"`)
	w.WriteHeader(http.StatusOK)
	if err := o.ChromeTrace(w); err != nil {
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

// renderShardMetrics appends the lrd_shard_* families to a /metrics
// response: one series per engine shard (plus the control plane, labelled
// shard="ctl") from the observer's telemetry counters. No observer, no
// series — the families simply don't exist then, which Prometheus treats
// as absent, not zero.
func renderShardMetrics(w io.Writer, o *obs.Observer) {
	if o == nil {
		return
	}
	stats := o.ShardStats()
	if len(stats) == 0 {
		return
	}
	label := func(s obs.ShardStats) string {
		if s.Shard < 0 {
			return "ctl"
		}
		return strconv.Itoa(s.Shard)
	}
	counter := func(name, help string, v func(obs.ShardStats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, s := range stats {
			fmt.Fprintf(w, "%s{shard=%q} %d\n", name, label(s), v(s))
		}
	}
	gauge := func(name, help string, v func(obs.ShardStats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, s := range stats {
			fmt.Fprintf(w, "%s{shard=%q} %g\n", name, label(s), v(s))
		}
	}
	counter("lrd_shard_steps_total", "Protocol steps executed on the shard.",
		func(s obs.ShardStats) int64 { return s.Steps })
	counter("lrd_shard_reversals_total", "Edge reversals performed on the shard.",
		func(s obs.ShardStats) int64 { return s.Reversals })
	counter("lrd_shard_delivered_total", "Protocol messages delivered to the shard's nodes.",
		func(s obs.ShardStats) int64 { return s.Delivered })
	counter("lrd_shard_remote_total", "Cross-shard transmissions originated by the shard.",
		func(s obs.ShardStats) int64 { return s.BatchMsgs })
	counter("lrd_shard_acks_total", "Acknowledgements sent by the shard's nodes.",
		func(s obs.ShardStats) int64 { return s.Acks })
	counter("lrd_shard_nacks_total", "Loss notifications surfaced to the shard's nodes.",
		func(s obs.ShardStats) int64 { return s.Nacks })
	counter("lrd_shard_retransmits_total", "Payload retransmissions originated by the shard.",
		func(s obs.ShardStats) int64 { return s.Retransmits })
	counter("lrd_shard_batches_total", "Cross-shard batches shipped by the shard.",
		func(s obs.ShardStats) int64 { return s.Batches })
	counter("lrd_shard_events_total", "Protocol events observed by the shard's flight recorder.",
		func(s obs.ShardStats) int64 { return s.Events })
	counter("lrd_shard_events_sampled_total", "Protocol events retained after deterministic sampling.",
		func(s obs.ShardStats) int64 { return s.Sampled })
	gauge("lrd_shard_runq_peak", "Largest generation of the shard's local run-queue so far.",
		func(s obs.ShardStats) float64 { return float64(s.RunQueuePeak) })
	gauge("lrd_shard_mailbox_peak", "Most batches waiting in the shard's inbox when it woke.",
		func(s obs.ShardStats) float64 { return float64(s.MailboxPeak) })
	gauge("lrd_shard_batch_fill_ratio", "Mean messages per shipped cross-shard batch.",
		func(s obs.ShardStats) float64 { return s.BatchFill() })
	fcounter := func(name, help string, v func(obs.ShardStats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, s := range stats {
			fmt.Fprintf(w, "%s{shard=%q} %g\n", name, label(s), v(s))
		}
	}
	fcounter("lrd_shard_busy_seconds_total", "Time the shard spent processing batches, in seconds.",
		func(s obs.ShardStats) float64 { return float64(s.BusyNS) / 1e9 })
	fcounter("lrd_shard_idle_seconds_total", "Time the shard spent waiting for traffic, in seconds.",
		func(s obs.ShardStats) float64 { return float64(s.IdleNS) / 1e9 })
}
