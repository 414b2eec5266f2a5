package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
)

// driftTolerance is the change in the calibration probe beyond which
// compare blames the host rather than the code for a timing difference.
// Back-to-back probes on one host agree within about 2%.
const driftTolerance = 0.05

// Verdicts of compare, for one workload × end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judge compares metric d's runs on side b (the change) with side a (the
// parent). Worse means b's median is worse than a's by more than d.Bound.
// Better needs b's median to beat a's by more than a's interquartile
// range, and either every b run to beat every a run, or b to win at least
// nine tenths of the seed-paired runs. When either side's spread exceeds
// the bound the result is unresolved, unless every b run is better. It
// returns the verdict and the relative change of the median.
func judge(d metricDef, a, b []float64, pairs [][2]float64) (string, float64) {
	q1a, ma, q3a := quartiles(a)
	_, mb, _ := quartiles(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return verdictUnresolved, math.NaN()
	}
	change := (mb - ma) / ma
	sign := 1.0 // +1: larger is worse
	if d.Better == "higher" {
		sign = -1
	}
	isBetter := func(x, y float64) bool { return sign*(x-y) < 0 }
	allBetter := isBetter(slices.Max(b), slices.Min(a))
	if sign < 0 {
		allBetter = isBetter(slices.Min(b), slices.Max(a))
	}
	clear := math.Abs(mb-ma) > q3a-q1a
	wins := 0
	for _, p := range pairs {
		if isBetter(p[1], p[0]) {
			wins++
		}
	}
	switch {
	case allBetter && clear:
		return verdictBetter, change
	case max(relSpread(a), relSpread(b)) > d.Bound:
		return verdictUnresolved, change
	case sign*change > d.Bound:
		return verdictWorse, change
	case sign*change < 0 && clear && len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)):
		return verdictBetter, change
	default:
		return verdictUnchanged, change
	}
}

// comparison is compare's whole judgement of two result sets.
type comparison struct {
	CalibA, CalibB float64
	Drift          float64
	Rows           []comparisonRow
	CountDiffs     []string
}

type comparisonRow struct {
	Workload, Metric string
	A, B             [3]float64 // quartiles: q1, median, q3
	Change           float64
	Verdict          string
	Note             string
}

// failed reports whether the comparison should fail the command: a worse
// metric, an exact count that changed, or nothing comparable at all.
func (c comparison) failed() bool {
	if len(c.CountDiffs) > 0 || len(c.Rows) == 0 {
		return true
	}
	for _, r := range c.Rows {
		if r.Verdict == verdictWorse {
			return true
		}
	}
	return false
}

func compareSets(a, b []record) comparison {
	c := comparison{CalibA: medianCalib(a), CalibB: medianCalib(b)}
	if c.CalibA > 0 {
		c.Drift = c.CalibB/c.CalibA - 1
	}
	for _, w := range workloads {
		ra, rb := untraced(a, w.Name), untraced(b, w.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			av, bv := metricValues(ra, d.Name), metricValues(rb, d.Name)
			v, change := judge(d, av, bv, seedPairs(ra, rb, d.Name))
			row := comparisonRow{Workload: w.Name, Metric: d.Name, Change: change, Verdict: v}
			row.A[0], row.A[1], row.A[2] = quartiles(av)
			row.B[0], row.B[1], row.B[2] = quartiles(bv)
			if isTiming(d) && math.Abs(c.Drift) > driftTolerance && (v == verdictWorse || v == verdictBetter) {
				row.Verdict = verdictUnresolved
				row.Note = fmt.Sprintf("host drift: was %s", v)
			}
			c.Rows = append(c.Rows, row)
		}
	}
	c.CountDiffs = countDiffs(a, b)
	return c
}

func isTiming(d metricDef) bool {
	return d.Unit == "s" || d.Unit == "ms" || d.Unit == "1/s"
}

func untraced(rs []record, workload string) []record {
	var out []record
	for _, r := range rs {
		if !r.Traced && r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(rs []record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name]
	}
	return out
}

// seedPairs pairs the two sides' runs by seed: for every seed both sides
// ran, the median value of each side.
func seedPairs(a, b []record, name string) [][2]float64 {
	bySeed := func(rs []record) map[int64][]float64 {
		m := make(map[int64][]float64)
		for _, r := range rs {
			m[r.Provenance.Seed] = append(m[r.Provenance.Seed], r.Metrics[name])
		}
		return m
	}
	ma, mb := bySeed(a), bySeed(b)
	var pairs [][2]float64
	for _, seed := range slices.Sorted(maps.Keys(ma)) {
		if vb, ok := mb[seed]; ok {
			pairs = append(pairs, [2]float64{median(ma[seed]), median(vb)})
		}
	}
	return pairs
}

func medianCalib(rs []record) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.CalibMS
	}
	return median(xs)
}

// countDiffs lists every exact count that differs between two runs of the
// same workload and seed, within a side or across the sides.
func countDiffs(a, b []record) []string {
	type key struct {
		workload string
		seed     int64
	}
	ref := make(map[key]record)
	var diffs []string
	for _, r := range slices.Concat(a, b) {
		if len(r.Counts) == 0 {
			continue
		}
		k := key{r.Workload, r.Provenance.Seed}
		first, ok := ref[k]
		if !ok {
			ref[k] = r
			continue
		}
		for _, name := range slices.Sorted(maps.Keys(first.Counts)) {
			if got, want := r.Counts[name], first.Counts[name]; got != want {
				diffs = append(diffs, fmt.Sprintf("%s seed %d: %s = %d, expected %d", k.workload, k.seed, name, got, want))
			}
		}
	}
	return diffs
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runCompare is the compare subcommand: it judges result file b (the
// change) against result file a (the parent) and fails on any worse
// metric or changed exact count.
func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	c := compareSets(a, b)
	printComparison(stdout, c, len(a), len(b))
	if c.failed() {
		return 1
	}
	return 0
}

func printComparison(w io.Writer, c comparison, na, nb int) {
	fmt.Fprintf(w, "A: %d records, B: %d records\n", na, nb)
	fmt.Fprintf(w, "calibration probe: A %.1f ms, B %.1f ms (%+.1f%%)", c.CalibA, c.CalibB, 100*c.Drift)
	if math.Abs(c.Drift) > driftTolerance {
		fmt.Fprint(w, " -- HOST DRIFT: timing differences are not attributed to the code")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s %-16s %-32s %-32s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	q := func(x [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", x[1], x[0], x[2]) }
	for _, r := range c.Rows {
		line := fmt.Sprintf("%-18s %-16s %-32s %-32s %+7.1f%%  %s", r.Workload, r.Metric, q(r.A), q(r.B), 100*r.Change, r.Verdict)
		if r.Note != "" {
			line += " (" + r.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	if len(c.Rows) == 0 {
		fmt.Fprintln(w, "no workload has untraced runs on both sides")
	}
	for _, d := range c.CountDiffs {
		fmt.Fprintln(w, "EXACT COUNT CHANGED:", d)
	}
	if len(c.CountDiffs) == 0 {
		fmt.Fprintln(w, "exact counts: identical")
	}
}
