package main

import (
	"strings"
	"testing"

	lr "linkreversal"
)

func newTestRouter(t *testing.T) *lr.Router {
	t.Helper()
	r, err := lr.NewRouter(lr.Grid(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stabilize(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestExecScript(t *testing.T) {
	r := newTestRouter(t)
	script := `
# comment and blank lines are skipped

route 8
fail 0 1
route 8
heal 0 1
status
`
	var out strings.Builder
	if err := execScript(r, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"route 8:", "fail {0,1}", "heal {0,1}", "status:", "acyclic=true"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestExecScriptErrors(t *testing.T) {
	tests := []struct {
		name   string
		script string
	}{
		{name: "unknown command", script: "explode 1 2"},
		{name: "bad node", script: "route x"},
		{name: "trailing junk on node", script: "route 3x"},
		{name: "trailing junk on pair", script: "fail 0 1junk"},
		{name: "missing args", script: "fail 1"},
		{name: "remove absent link", script: "fail 0 8"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newTestRouter(t)
			var out strings.Builder
			if err := execScript(r, strings.NewReader(tt.script), &out); err == nil {
				t.Errorf("script %q accepted", tt.script)
			}
		})
	}
}

func TestRoutePartitionReportedNotFatal(t *testing.T) {
	r, err := lr.NewRouter(lr.GoodChain(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stabilize(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	script := "fail 1 2\nroute 3\n"
	if err := execScript(r, strings.NewReader(script), &out); err != nil {
		t.Fatalf("partitioned route should report, not fail: %v", err)
	}
	if !strings.Contains(out.String(), "partitioned") {
		t.Errorf("expected partition report:\n%s", out.String())
	}
}

func TestRunWithScriptFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-topo", "ladder", "-n", "3", "-script", "-"},
		strings.NewReader("status\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ready:") {
		t.Errorf("missing ready banner:\n%s", out.String())
	}
}

func TestRunUnknownTopology(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "nope"},
		{"-topo", "star", "-n", "-1"},
	} {
		var out strings.Builder
		if err := run(args, strings.NewReader(""), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
