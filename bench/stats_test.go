package main

import (
	"math"
	"testing"
	"time"

	"linkreversal/internal/trace"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		name string
	}{
		{500, 0.98, "p98"},
		{10000, 0.999, "p99.9"},
		{1000, 0.99, "p99"},
		{100, 0.9, "p90"},
		{20, 0.5, "p50"},
		{19, 1, "max"},
		{3, 1, "max"},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got := quantileLabel(tailQuantile(c.n)); got != c.name {
			t.Errorf("label for n=%d = %q, want %q", c.n, got, c.name)
		}
	}
}

// With 500 samples 1..500 ms the tail is p98: exactly ten samples lie
// beyond the reported value.
func TestSummarizeReportsP98For500Samples(t *testing.T) {
	var p trace.LatencyProfile
	for i := 500; i >= 1; i-- {
		p.Record(time.Duration(i) * time.Millisecond)
	}
	s := summarize(&p)
	if s.N != 500 || s.TailQ != 0.98 || s.Tail != 490*time.Millisecond || s.P50 != 250*time.Millisecond {
		t.Fatalf("summary = n %d, %s %v, p50 %v; want n 500, p98 490ms, p50 250ms", s.N, quantileLabel(s.TailQ), s.Tail, s.P50)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 8}, [3]float64{1.5, 4, 6.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("relSpread = %v", got)
	}
}

// A 4 s window in which the host runs fast for two seconds (an op every
// 50 ms, taking 5 ms) and slow for two (an op every 250 ms, taking 40 ms):
// the quiet quarter is read from the fast half alone.
func TestQuietWindowPicksTheFastestQuarter(t *testing.T) {
	const ms = time.Millisecond
	var ops []opSample
	for end := 50 * ms; end <= 2000*ms; end += 50 * ms {
		ops = append(ops, opSample{end: end, lat: 5 * ms})
	}
	for end := 2250 * ms; end <= 4000*ms; end += 250 * ms {
		ops = append(ops, opSample{end: end, lat: 40 * ms})
	}
	ss := windowSlices(ops, 4*time.Second)
	// Four fast slices of ten ops and three slow ones of two; the op ending
	// at 4 s is outside the window and the 3.75 s op is a cut-short slice.
	if len(ss) != 7 || len(ss[0].lats) != 10 || ss[0].dur != 500*ms || len(ss[6].lats) != 2 {
		t.Fatalf("slices: %d, first %d ops over %v", len(ss), len(ss[0].lats), ss[0].dur)
	}
	q := quiet(ss)
	if q.N != 20 || q.P50 != 5*ms || q.OpsPerS != 20 {
		t.Fatalf("quiet = %+v, want 20 ops at 20/s with p50 5ms", q)
	}
	if q := quiet(nil); q.N != 0 {
		t.Fatalf("quiet(nil) = %+v", q)
	}
}

// Repair calls are slices of their own: the quiet quarter of eight calls
// is the two fastest.
func TestQuietCalls(t *testing.T) {
	const ms = time.Millisecond
	q := quiet(callSlices([]time.Duration{70 * ms, 20 * ms, 50 * ms, 10 * ms, 80 * ms, 30 * ms, 60 * ms, 40 * ms}))
	if q.N != 2 || q.P50 != 10*ms || math.Abs(q.OpsPerS-2/0.03) > 1e-9 {
		t.Fatalf("quiet = %+v, want the 10 ms and 20 ms calls", q)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}
