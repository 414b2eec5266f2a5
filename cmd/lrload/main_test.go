package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"linkreversal/internal/dist"
	"linkreversal/internal/serve"
	"linkreversal/internal/workload"
)

// startServer boots an in-process serving layer over a stabilized grid and
// returns its host:port.
func startServer(t *testing.T, topo *workload.Topology, opts dist.DynOptions) string {
	t.Helper()
	network, err := dist.NewDynamicNetworkWith(topo, opts)
	if err != nil {
		t.Fatalf("NewDynamicNetworkWith: %v", err)
	}
	t.Cleanup(func() { network.Stop() })
	if err := network.AwaitQuiescence(); err != nil {
		t.Fatalf("AwaitQuiescence: %v", err)
	}
	ts := httptest.NewServer(serve.New(network, serve.Config{
		Topology: topo.Name, Shards: opts.Shards, Scenario: "reliable", Seed: 1,
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestLoadAgainstQuietServer(t *testing.T) {
	addr := startServer(t, workload.Grid(8, 8), dist.DynOptions{})
	var out strings.Builder
	err := run([]string{"-addr", addr, "-requests", "400", "-workers", "4", "-json"}, &out)
	if err != nil {
		t.Fatalf("lrload: %v\noutput: %s", err, out.String())
	}
	for _, want := range []string{"E13", "p99-ms", `"scenario"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestLoadUnderChurn(t *testing.T) {
	addr := startServer(t, workload.Grid(8, 8), dist.DynOptions{
		PublishEvery: 500 * time.Microsecond,
	})
	var out strings.Builder
	err := run([]string{"-addr", addr, "-requests", "600", "-workers", "4", "-churn", "-seed", "3"}, &out)
	if err != nil {
		t.Fatalf("lrload under churn: %v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "churn-ops") {
		t.Errorf("table missing churn column:\n%s", out.String())
	}
}

func TestLoadFlagAndConnectErrors(t *testing.T) {
	if err := run([]string{"-nope"}, &strings.Builder{}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-requests", "0"}, &strings.Builder{}); err == nil {
		t.Error("zero requests accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1"}, &strings.Builder{}); err == nil {
		t.Error("unreachable server accepted")
	}
}
