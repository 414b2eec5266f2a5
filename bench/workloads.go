package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"
)

// sizes holds the input sizes of the workloads. The command always runs
// defaultSizes; the tests drive the same runners at tiny sizes.
type sizes struct {
	GridSide     int           // repair-grid-1m repairs a GridSide×GridSide grid
	TreeN        int           // repair-lossy-tree repairs a random tree of TreeN nodes
	ServeN       int           // serve-* boot lrd with -n ServeN (a grid)
	Setups       int           // set-ups per run; setup_s is their median
	Warmup       time.Duration // untimed load before a serve-* window
	ChurnRounds  int           // traced serve-*: in-process fail/add rounds
	RouteCalls   int           // traced serve-*: RouteInto calls
	HandlerCalls int           // traced serve-*: ServeHTTP calls
	JudgeCalls   int           // traced repair-lossy-tree: Injector.Judge calls
}

var defaultSizes = sizes{
	GridSide:     1000,
	TreeN:        300000,
	ServeN:       100000,
	Setups:       3,
	Warmup:       2 * time.Second,
	ChurnRounds:  16,
	RouteCalls:   20000,
	HandlerCalls: 2000,
	JudgeCalls:   1000000,
}

// env is what a workload runner gets: the seed its inputs come from, the
// measurement window, whether the run is traced, and where lrd lives.
type env struct {
	seed   int64
	window time.Duration
	traced bool
	lrd    string
	size   sizes
	spans  *recorder // nil unless traced
	log    io.Writer
}

// outcome is what a workload runner measured and checked. Every checked
// operation is recorded once: attempted counts them, failed counts the
// ones whose output was wrong.
type outcome struct {
	attempted, failed int
	errs              []string
	values            map[string]float64
	counts            map[string]int64 // exact counts, identical run to run
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// record counts one operation and returns err, so callers can stop at the
// first failure of an operation the rest depends on.
func (o *outcome) record(err error) error {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 10 {
			o.errs = append(o.errs, err.Error())
		}
	}
	return err
}

func errIf(cond bool, format string, args ...any) error {
	if cond {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// memAlloc returns the bytes this process has allocated so far.
func memAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// zeroValues returns every metric of defs set to 0, the value reported
// for a layer the workload does not exercise.
func zeroValues(defs []metricDef) map[string]float64 {
	m := make(map[string]float64, len(defs))
	for _, d := range defs {
		m[d.Name] = 0
	}
	return m
}

type workload struct {
	Name string
	Why  string
	Run  func(ctx context.Context, e *env) (*outcome, error)
}

// workloads are the benchmark's input sets. Each exercises a different
// layer mix, so an optimisation of one layer shows on one workload and
// leaves another unchanged.
var workloads = []workload{
	{
		Name: "repair-grid-1m",
		Why:  "Static repair of a 1M-node grid on a reliable network: engine fast path, core.Init and graph checks at the 1M scale; almost no cross-shard traffic, no faults, no serving.",
		Run:  gridRepair.run,
	},
	{
		Name: "repair-lossy-tree",
		Why:  "Static repair of a 300k-node random tree under Flaky faults: 76% of messages cross shards, so shard routing, mailboxes, coalescing and ack/retransmit dominate.",
		Run:  lossyTreeRepair.run,
	},
	{
		Name: "serve-read",
		Why:  "lrd on a 100k grid, 2 closed-loop readers of GET /route: lock-free snapshot reads, RouteInto, the HTTP handler and JSON over loopback; the control plane idles.",
		Run:  readServe.run,
	},
	{
		Name: "serve-churn",
		Why:  "lrd on a 100k grid under Flaky faults with one link-flapping writer beside one reader: link ops, quiescence, epoch publication and its GC cost on reads.",
		Run:  churnServe.run,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, errors.New("unknown workload " + name)
}
