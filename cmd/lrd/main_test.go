package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe output sink run() writes its startup
// lines into.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`msg=listening url=http://([\d.:]+)`)

// startDaemon boots run() on a free port and returns the bound address.
func startDaemon(t *testing.T, args []string) (addr string, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-errc:
			cancel()
			t.Fatalf("daemon exited before listening: %v\noutput: %s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never announced its address; output: %s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return addr, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			return context.DeadlineExceeded
		}
	}
}

func TestDaemonServesAndDrains(t *testing.T) {
	addr, shutdown := startDaemon(t, []string{"-topo", "chain", "-n", "16", "-publish", "1ms"})

	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	var st struct {
		N      int `json:"n"`
		Epoch  int `json:"epoch"`
		Config struct {
			Topology string `json:"topology"`
			Scenario string `json:"scenario"`
		} `json:"config"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	resp.Body.Close()
	if st.N != 16 || st.Epoch == 0 || st.Config.Scenario != "reliable" {
		t.Errorf("status %+v", st)
	}

	resp, err = http.Get("http://" + addr + "/route/15")
	if err != nil {
		t.Fatalf("GET /route/15: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("route = %d", resp.StatusCode)
	}

	if err := shutdown(); err != nil {
		t.Errorf("graceful shutdown returned %v", err)
	}
}

func TestDaemonShardedFlaky(t *testing.T) {
	addr, shutdown := startDaemon(t, []string{
		"-topo", "grid", "-n", "64",
		"-engine", "sharded", "-shards", "4", "-partition", "locality",
		"-faults", "flaky", "-seed", "7", "-publish", "1ms",
	})
	resp, err := http.Get("http://" + addr + "/route/63")
	if err != nil {
		t.Fatalf("GET /route/63: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("route on flaky sharded grid = %d", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestDaemonFlightRecorder boots with the observer armed and checks the
// whole observability surface end to end: /debug/events serves decoded
// protocol events, /debug/trace is a well-formed Chrome trace, /metrics
// grows the per-shard families and /debug/pprof/ answers when -pprof is
// set.
func TestDaemonFlightRecorder(t *testing.T) {
	addr, shutdown := startDaemon(t, []string{
		"-topo", "grid", "-n", "64",
		"-engine", "sharded", "-shards", "4",
		"-faults", "lossy", "-seed", "3", "-publish", "1ms",
		"-flightrec", "-pprof",
	})

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		resp.Body.Close()
		return resp, sb.String()
	}

	resp, body := get("/debug/events?n=32")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/events = %d: %s", resp.StatusCode, body)
	}
	var ev struct {
		Count  int `json:"count"`
		Events []struct {
			Kind  string `json:"kind"`
			Shard int    `json:"shard"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &ev); err != nil {
		t.Fatalf("decode events: %v", err)
	}
	if ev.Count == 0 || len(ev.Events) != ev.Count {
		t.Errorf("events count=%d len=%d; a stabilized lossy grid must have recorded events", ev.Count, len(ev.Events))
	}

	resp, body = get("/debug/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace = %d", resp.StatusCode)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("trace has no events")
	}

	if resp, body = get("/metrics"); !strings.Contains(body, "lrd_shard_steps_total") {
		t.Errorf("/metrics (%d) lacks lrd_shard_ families", resp.StatusCode)
	}
	if resp, body = get("/debug/vars"); !strings.Contains(body, `"lrd"`) {
		t.Errorf("/debug/vars (%d) lacks the lrd object: %s", resp.StatusCode, body)
	} else if !json.Valid([]byte(body)) {
		t.Errorf("/debug/vars is not valid JSON: %s", body)
	}
	if resp, _ = get("/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", resp.StatusCode)
	}

	if err := shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestDaemonDebugOff checks the safe-to-probe contract: without -flightrec
// the recorder endpoints 404, and without -pprof the profilers are absent.
func TestDaemonDebugOff(t *testing.T) {
	addr, shutdown := startDaemon(t, []string{"-topo", "chain", "-n", "8"})
	for path, want := range map[string]int{
		"/debug/events":        http.StatusNotFound,
		"/debug/trace":         http.StatusNotFound,
		"/debug/pprof/cmdline": http.StatusNotFound,
		"/debug/vars":          http.StatusOK,
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	if err := shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-topo", "torus"},
		{"-engine", "quantum"},
		{"-engine", "goroutine"},
		{"-partition", "psychic"},
		{"-faults", "solar-flare"},
		{"-faults", "lossless"},
		{"-n", "1"},
		{"-log-level", "loud"},
		{"-flightrec-sample", "0"},
	} {
		if err := run(context.Background(), args, &syncBuffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunAcceptsSharedSpellings: lrd takes the -faults and -partition
// spellings lrbench takes, ignoring case.
func TestRunAcceptsSharedSpellings(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "off"},
		{"-faults", "Reliable", "-partition", "HASH"},
	} {
		_, shutdown := startDaemon(t, append([]string{"-topo", "chain", "-n", "8"}, args...))
		if err := shutdown(); err != nil {
			t.Errorf("args %v: shutdown: %v", args, err)
		}
	}
}

// TestRunGoroutineEnginePointsAtShards pins the message for the removed
// goroutine engine: it must name -shards, the way to one node per shard.
func TestRunGoroutineEnginePointsAtShards(t *testing.T) {
	err := run(context.Background(), []string{"-engine", "goroutine"}, &syncBuffer{})
	if err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("-engine goroutine: err = %v, want a pointer to -shards", err)
	}
}
