package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var tinySizes = sizes{
	GridSide:     40,
	TreeN:        3000,
	ServeN:       400,
	Setups:       2,
	Warmup:       100 * time.Millisecond,
	ChurnRounds:  3,
	RouteCalls:   200,
	HandlerCalls: 50,
	JudgeCalls:   1000,
}

// buildLRD builds cmd/lrd into a temporary directory for the serve
// workloads.
func buildLRD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lrd")
	out, err := exec.Command("go", "build", "-o", bin, "linkreversal/cmd/lrd").CombinedOutput()
	if err != nil {
		t.Fatalf("building lrd: %v\n%s", err, out)
	}
	return bin
}

func tinyEnv(lrd string, traced bool) *env {
	e := &env{seed: 3, window: 400 * time.Millisecond, traced: traced, lrd: lrd, size: tinySizes, log: io.Discard}
	if traced {
		e.spans = newRecorder()
	}
	return e
}

// Every workload, untraced and traced, runs clean at tiny sizes and
// reports every metric of its table as a positive number where the
// workload exercises it.
func TestWorkloadsAtTinySizes(t *testing.T) {
	lrd := buildLRD(t)
	exercised := map[string][]string{
		"repair-grid-1m":    {"op_tail_ms", "core.init_s", "dist.run_s", "graph.verify_s", "dist.shard_busy_s", "layers_explained_frac", "dist.alloc_mb"},
		"repair-lossy-tree": {"op_tail_ms", "dist.remote_frac", "faults.drops", "faults.acks", "faults.useful_frac", "faults.judge_ns"},
		"serve-read":        {"op_tail_ms", "dist.stabilize_s", "dist.publish_ms", "snapshot.route_ns", "serve.handler_us", "serve.route_bytes", "serve.read_p50_us"},
		"serve-churn":       {"op_tail_ms", "dist.dyn_retransmits", "dist.alloc_per_churn_mb", "serve.handler_mean_us_live", "serve.read_tail_us"},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := tinyEnv(lrd, traced)
			o, err := w.Run(t.Context(), e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if o.failed > 0 || o.attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, o.failed, o.attempted, o.errs)
			}
			want := []string{}
			for _, d := range endToEnd {
				want = append(want, d.Name)
			}
			if traced {
				want = exercised[w.Name]
				if len(e.spans.snapshot()) == 0 {
					t.Errorf("%s traced: no spans recorded", w.Name)
				}
			}
			for _, name := range want {
				if v := o.values[name]; !(v > 0) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", w.Name, traced, name, v)
				}
			}
		}
	}
}

// A run ends with one JSON line holding exactly correct, attempted,
// failed and metrics, and the metrics are the end-to-end table (the
// per-layer table when traced), each with its unit.
func TestRunWorkloadResultLine(t *testing.T) {
	lrd := buildLRD(t)
	w, err := findWorkload("serve-read")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []int{0, 1} {
		dir := t.TempDir()
		opt := options{workload: w.Name, seed: 2, seconds: 1, trace: traced, lrd: lrd,
			traceDir: dir, out: filepath.Join(dir, "results.jsonl")}
		var out, errOut bytes.Buffer
		if code := runWorkload(t.Context(), w, opt, tinySizes, &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s%s", traced, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
			t.Fatalf("result keys: %s", lines[len(lines)-1])
		}
		line, err := lastResult(out.Bytes())
		if err != nil || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Fatalf("result %+v, %v", line, err)
		}
		defs := metricSet(traced == 1)
		if len(line.Metrics) != len(defs) {
			t.Fatalf("%d metrics, want %d", len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if line.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("metric %s: %+v", d.Name, line.Metrics[d.Name])
			}
		}
		recs, err := readRecords(opt.out)
		if err != nil || len(recs) != 1 || recs[0].Provenance.Seed != 2 || recs[0].CalibMS <= 0 || recs[0].Provenance.GoVersion == "" {
			t.Fatalf("result record %+v, %v", recs, err)
		}
		if traced == 1 {
			b, err := os.ReadFile(traceFile(dir, w.Name, 2))
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err == nil {
				err = json.Unmarshal(b, &doc)
			}
			if err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("trace file: %d events, %v", len(doc.TraceEvents), err)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-seed", "2", "trace", "-workload", "nope"},
		{"trace", "-seconds", "0"},
		{"-workload", "nope"},
		{"compare", "only-one-file"},
		{"-no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		if code := run(t.Context(), args, &out, &errOut); code != 2 {
			t.Errorf("run %v = %d, want 2", args, code)
		}
	}
}
