package main

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"time"

	"linkreversal/internal/trace"
)

// tailLadder lists the percentiles a timing may be reported at, lowest
// first. A run reports the highest one that still has at least ten samples
// beyond it, so a tail is never a single outlier.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.998, 0.999, 0.9995, 0.9998, 0.9999}

// tailQuantile returns the highest ladder quantile with at least ten of n
// samples beyond it. With fewer than 20 samples no quantile qualifies and
// it returns 1, the slowest sample.
func tailQuantile(n int) float64 {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		q := tailLadder[i]
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 1
}

// quantileLabel names a quantile the way reports print it: p50, p99.9, or
// max for 1.
func quantileLabel(q float64) string {
	if q >= 1 {
		return "max"
	}
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

// latencySummary is a latency sample reduced to the two numbers every
// timing reports: the median and the tail quantile the sample supports.
type latencySummary struct {
	N     int
	P50   time.Duration
	TailQ float64
	Tail  time.Duration
}

func summarize(p *trace.LatencyProfile) latencySummary {
	n := p.Count()
	q := tailQuantile(n)
	return latencySummary{N: n, P50: p.Quantile(0.5), TailQ: q, Tail: p.Quantile(q)}
}

// quietShare is the share of a window the end-to-end timings are read
// from: the stretches in which operations completed fastest. On a shared
// host, co-tenants slow a run down in bursts lasting seconds to minutes and
// never speed it up, so the least-disturbed quarter of a window repeats
// from run to run where the whole window does not.
const quietShare = 0.25

// sliceWidth is the length of the slices a serving window is cut into
// before its quietest quarter is picked.
const sliceWidth = 500 * time.Millisecond

// opSample is one timed operation: when it ended, measured from the start
// of the window, and how long it took.
type opSample struct{ end, lat time.Duration }

// slice is a stretch of a window and the latencies of the operations that
// ended in it.
type slice struct {
	dur  time.Duration
	lats []time.Duration
}

// windowSlices cuts a window of length w into consecutive slices of at
// least sliceWidth (a quarter of the window, if that is shorter), each
// closed by an operation's end. A slice lasts from the end that closed the
// slice before it to its own, so a rate over slices is exact rather than a
// count over a nominal length. Operations that ended after the window, and
// a last slice cut short by it, are left out.
func windowSlices(ops []opSample, w time.Duration) []slice {
	width := min(sliceWidth, w/4)
	ops = slices.Clone(ops)
	slices.SortFunc(ops, func(a, b opSample) int { return cmp.Compare(a.end, b.end) })
	var out []slice
	var cur slice
	var from time.Duration
	for _, op := range ops {
		if op.end >= w {
			break
		}
		cur.lats = append(cur.lats, op.lat)
		if d := op.end - from; d >= width {
			cur.dur = d
			out = append(out, cur)
			cur, from = slice{}, op.end
		}
	}
	return out
}

// callSlices makes every operation a slice of its own, for operations
// longer than a slice (a repair call).
func callSlices(lats []time.Duration) []slice {
	out := make([]slice, len(lats))
	for i, d := range lats {
		out[i] = slice{dur: d, lats: []time.Duration{d}}
	}
	return out
}

// quietSummary is what the end-to-end timings report: the throughput and
// median latency over the quietest quietShare of a window's slices.
type quietSummary struct {
	N       int
	P50     time.Duration
	OpsPerS float64
}

// quiet picks the quietShare of slices (at least one) that completed
// operations at the highest rate and pools their operations. With no
// slices it reports nothing.
func quiet(ss []slice) quietSummary {
	if len(ss) == 0 {
		return quietSummary{}
	}
	ss = slices.Clone(ss)
	rate := func(s slice) float64 { return float64(len(s.lats)) / s.dur.Seconds() }
	slices.SortStableFunc(ss, func(a, b slice) int { return cmp.Compare(rate(b), rate(a)) })
	var p trace.LatencyProfile
	var dur time.Duration
	for _, s := range ss[:max(1, int(math.Round(quietShare*float64(len(ss)))))] {
		for _, d := range s.lats {
			p.Record(d)
		}
		dur += s.dur
	}
	return quietSummary{N: p.Count(), P50: p.Quantile(0.5), OpsPerS: float64(p.Count()) / dur.Seconds()}
}

// median returns the middle value of xs (the mean of the two middle values
// for even lengths), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly like Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, so spreads printed here match that reference.
// A single value is its own quartiles; an empty slice gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// relSpread is the interquartile range of xs as a share of its median, the
// run-to-run noise measure the bounds in BENCHMARK.json are set against.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// durMedian returns the median of ds as a duration.
func durMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
