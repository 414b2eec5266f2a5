// Command bench is the repository's benchmark. It runs seeded workloads
// against the library (static repair through RunDistributedWith) and the
// lrd daemon (route reads and link churn over loopback), checks every
// output, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics and a Perfetto trace — ending with one JSON result
// line. bench compare A B judges two sets of result records. See
// README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const usage = `usage:
  bench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-lrd PATH] [-trace-dir DIR] [-out FILE]
  bench trace [flags]           same as bench -trace 1 [flags]
  bench compare A.jsonl B.jsonl`

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	lrd      string
	traceDir string
	out      string
}

// run is the command behind main; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, usage); fs.PrintDefaults() }
	var opt options
	fs.StringVar(&opt.workload, "workload", "all", "workload to run; all runs each in its own process")
	fs.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&opt.seconds, "seconds", 20, "measurement window per run, in seconds")
	fs.IntVar(&opt.trace, "trace", 0, "1 for a traced run reporting per-layer metrics")
	fs.StringVar(&opt.lrd, "lrd", ".bench_build/lrd", "lrd binary the serve workloads boot")
	fs.StringVar(&opt.traceDir, "trace-dir", ".bench_build/traces", "directory traced runs write Perfetto traces to")
	fs.StringVar(&opt.out, "out", "", "append a provenance-stamped result record to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) > 0 && rest[0] == "trace" {
		opt.trace = 1
		if err := fs.Parse(rest[1:]); err != nil {
			return 2
		}
		rest = fs.Args()
	}
	if len(rest) > 0 {
		if rest[0] == "compare" && len(rest) == 3 {
			return runCompare(rest[1], rest[2], stdout, stderr)
		}
		fmt.Fprintln(stderr, usage)
		return 2
	}
	if opt.seconds < 1 || (opt.trace != 0 && opt.trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if opt.workload == "all" {
		return runAll(ctx, opt, stdout, stderr)
	}
	w, err := findWorkload(opt.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return runWorkload(ctx, w, opt, defaultSizes, stdout, stderr)
}

// resultLine is the last line a run prints: exactly these four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as stored in a result file for compare: the metrics,
// the exact counts, and the provenance and host calibration they were
// taken under.
type record struct {
	Workload      string             `json:"workload"`
	Traced        bool               `json:"traced"`
	Seconds       int                `json:"seconds"`
	Provenance    provenance         `json:"provenance"`
	CalibMS       float64            `json:"calib_ms"`
	CalibBeforeMS float64            `json:"calib_before_ms"`
	CalibAfterMS  float64            `json:"calib_after_ms"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Errors        []string           `json:"errors,omitempty"`
	Metrics       map[string]float64 `json:"metrics"`
	Counts        map[string]int64   `json:"counts,omitempty"`
}

// runWorkload runs one workload in this process and reports it.
func runWorkload(ctx context.Context, w workload, opt options, size sizes, stdout, stderr io.Writer) int {
	e := &env{
		seed: opt.seed, window: time.Duration(opt.seconds) * time.Second,
		traced: opt.trace == 1, lrd: opt.lrd, size: size, log: stdout,
	}
	if e.traced {
		e.spans = newRecorder()
	}
	prov := currentProvenance(opt.seed)
	fmt.Fprintf(stdout, "workload %s, seed %d, window %ds, traced %v\n", w.Name, opt.seed, opt.seconds, e.traced)
	fmt.Fprintf(stdout, "provenance: %s, GOMAXPROCS %d, nproc %d, %s, commit %s\n",
		prov.GoVersion, prov.GOMAXPROCS, prov.NumCPU, prov.CPUModel, prov.Commit)
	calibBefore := calibMS()
	o, err := w.Run(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	calibAfter := calibMS()

	defs := metricSet(e.traced)
	values := zeroValues(defs)
	for k, v := range o.values {
		if _, ok := values[k]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			values[k] = v
		}
	}
	rec := record{
		Workload: w.Name, Traced: e.traced, Seconds: opt.seconds, Provenance: prov,
		CalibMS: (calibBefore + calibAfter) / 2, CalibBeforeMS: calibBefore, CalibAfterMS: calibAfter,
		Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed,
		Errors: o.errs, Metrics: values, Counts: o.counts,
	}
	fmt.Fprintf(stdout, "calibration probe: %.1f ms before, %.1f ms after\n", calibBefore, calibAfter)
	for _, msg := range o.errs {
		fmt.Fprintln(stdout, "FAILED:", msg)
	}
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed (failed_frac %g)\n",
		o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	printMetrics(stdout, defs, values)
	if e.traced {
		spans := e.spans.snapshot()
		printSelfTimes(stdout, spans)
		if err := writeTrace(opt.traceDir, w.Name, opt.seed, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %s\n", traceFile(opt.traceDir, w.Name, opt.seed))
	}
	if opt.out != "" {
		if err := appendRecord(opt.out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	if err := printResult(stdout, resultLine{Correct: rec.Correct, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

func printResult(w io.Writer, line resultLine) error {
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func traceFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
}

func writeTrace(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(traceFile(dir, workload, seed))
	if err != nil {
		return err
	}
	err = writeChrome(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runAll runs every workload in a fresh process of its own, so set-up
// time and peak memory belong to that workload alone, and prints one
// combined result line with metrics keyed workload/metric.
func runAll(ctx context.Context, opt options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		args := []string{
			"-workload", w.Name, "-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.Itoa(opt.seconds), "-trace", strconv.Itoa(opt.trace),
			"-lrd", opt.lrd, "-trace-dir", opt.traceDir, "-out", opt.out,
		}
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		line, err := lastResult(out.Bytes())
		if runErr != nil || err != nil {
			all.Correct = false
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			continue
		}
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for k, v := range line.Metrics {
			all.Metrics[w.Name+"/"+k] = v
		}
	}
	if err := printResult(stdout, all); err != nil || !all.Correct {
		return 1
	}
	return 0
}

// lastResult parses the result line a run ends its output with.
func lastResult(out []byte) (resultLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}
