package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name  string
		d     metricDef
		a, b  []float64
		pairs [][2]float64
		want  string
	}{
		{"same runs", lower, []float64{100, 101, 99, 100, 102}, []float64{101, 100, 99, 102, 100}, nil, verdictUnchanged},
		{"small slowdown within bound", lower, []float64{100, 101, 99, 100, 102}, []float64{105, 106, 104, 105, 107}, nil, verdictUnchanged},
		{"slowdown beyond bound", lower, []float64{100, 101, 99, 100, 102}, []float64{120, 119, 121, 118, 122}, nil, verdictWorse},
		{"every run faster", lower, []float64{100, 101, 99, 100, 102}, []float64{90, 91, 89, 92, 90}, nil, verdictBetter},
		{"spread wider than the bound", lower, []float64{70, 100, 130, 90, 110}, []float64{120, 80, 100, 140, 95}, nil, verdictUnresolved},
		{"wide spread but every run better", lower, []float64{100, 130, 160, 115, 145}, []float64{50, 60, 55, 58, 52}, nil, verdictBetter},
		{"throughput drop", higher, []float64{100, 101, 99, 100, 102}, []float64{80, 81, 79, 80, 82}, nil, verdictWorse},
		{"throughput gain", higher, []float64{100, 101, 99, 100, 102}, []float64{110, 111, 109, 110, 112}, nil, verdictBetter},
		{
			"paired wins without full separation", lower,
			[]float64{100, 104, 96, 101, 99, 103, 97, 100, 102, 98},
			[]float64{94, 99, 90, 95, 93, 97, 91, 94, 97, 92},
			[][2]float64{{100, 94}, {104, 99}, {96, 90}, {101, 95}, {99, 93}, {103, 97}, {97, 91}, {100, 94}, {102, 97}, {98, 92}},
			verdictBetter,
		},
	} {
		if got, _ := judge(c.d, c.a, c.b, c.pairs); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func rec(workload string, seed int64, calib, p50 float64, counts map[string]int64) record {
	m := zeroValues(endToEnd)
	for _, d := range endToEnd {
		m[d.Name] = 100
	}
	m["op_p50_ms"] = p50
	return record{
		Workload: workload, Provenance: provenance{Seed: seed}, CalibMS: calib,
		Correct: true, Attempted: 1, Metrics: m, Counts: counts,
	}
}

func TestCompareSetsCountsAndDrift(t *testing.T) {
	counts := map[string]int64{"steps": 10, "messages": 20}
	var a, b []record
	for seed := int64(1); seed <= 5; seed++ {
		a = append(a, rec("repair-lossy-tree", seed, 100, 1000+float64(seed), counts))
		b = append(b, rec("repair-lossy-tree", seed, 100, 1000+float64(seed), counts))
	}
	c := compareSets(a, b)
	if c.failed() || len(c.CountDiffs) != 0 {
		t.Fatalf("identical sets failed: %+v", c)
	}
	for _, r := range c.Rows {
		if r.Verdict != verdictUnchanged {
			t.Errorf("%s/%s: %s on identical sets", r.Workload, r.Metric, r.Verdict)
		}
	}

	b[2].Counts = map[string]int64{"steps": 11, "messages": 20}
	if c := compareSets(a, b); !c.failed() || len(c.CountDiffs) != 1 || !strings.Contains(c.CountDiffs[0], "steps = 11") {
		t.Fatalf("changed count not reported: %v", c.CountDiffs)
	}

	// Every B run 30% slower, but the calibration probe slowed down as
	// much: the host drifted, so the timing verdict is not "worse".
	for i := range b {
		b[i].Counts = counts
		b[i].CalibMS = 130
		b[i].Metrics["op_p50_ms"] *= 1.3
	}
	c = compareSets(a, b)
	if c.failed() {
		t.Fatalf("host drift reported as a regression")
	}
	for _, r := range c.Rows {
		if r.Metric == "op_p50_ms" && (r.Verdict != verdictUnresolved || !strings.Contains(r.Note, "drift")) {
			t.Errorf("op_p50_ms under drift: %s (%s)", r.Verdict, r.Note)
		}
	}

	// The same slowdown on a steady host is a regression.
	for i := range b {
		b[i].CalibMS = 100
	}
	if c := compareSets(a, b); !c.failed() {
		t.Fatalf("30%% slowdown on a steady host not reported as worse")
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for seed := int64(1); seed <= 5; seed++ {
		if err := appendRecord(pa, rec("serve-read", seed, 100, 0.13, nil)); err != nil {
			t.Fatal(err)
		}
		if err := appendRecord(pb, rec("serve-read", seed, 100, 0.13, nil)); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	if code := run(t.Context(), []string{"compare", pa, pb}, &out, &errOut); code != 0 {
		t.Fatalf("compare of identical files exited %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "serve-read") || !strings.Contains(out.String(), verdictUnchanged) {
		t.Fatalf("compare output lacks the verdicts:\n%s", out.String())
	}
	if err := os.WriteFile(pb, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(t.Context(), []string{"compare", pa, pb}, &out, &errOut); code != 2 {
		t.Fatalf("compare of a malformed file exited %d, want 2", code)
	}
}
