// Command lrmc exhaustively model-checks the paper's invariants: it
// enumerates EVERY reachable state of each algorithm variant on a small
// topology and evaluates the full invariant suite on each state. This is
// the strongest executable counterpart of the paper's "in any reachable
// state" theorems.
//
// Usage:
//
//	lrmc -topo alt-chain -n 6 [-max 1000000] [-reduce none|sleep|ample]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"linkreversal/internal/core"
	"linkreversal/internal/mc"
	"linkreversal/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrmc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lrmc", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "alt-chain", "topology: "+workload.Names)
		n        = fs.Int("n", 6, "topology size parameter")
		p        = fs.Float64("p", 0.4, "edge density for random topology")
		seed     = fs.Int64("seed", 1, "random seed")
		maxSt    = fs.Int("max", 1<<20, "state limit")
		reduce   = fs.String("reduce", "none", "partial-order reduction: none (full census), sleep (same census, fewer transitions), ample (canonical execution only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var reduction mc.Reduction
	switch strings.ToLower(*reduce) {
	case "none":
		reduction = mc.ReduceNone
	case "sleep":
		reduction = mc.ReduceSleep
	case "ample":
		reduction = mc.ReduceAmple
	default:
		return fmt.Errorf("unknown reduction %q (want none, sleep or ample)", *reduce)
	}
	topo, err := workload.ByName(*topoName, *n, *p, *seed)
	if err != nil {
		return err
	}
	in, err := topo.Init()
	if err != nil {
		return err
	}
	fmt.Printf("exhaustive check on %s (n=%d, m=%d, dest=%d)\n",
		topo.Name, topo.Graph.NumNodes(), topo.Graph.NumEdges(), topo.Dest)
	fmt.Printf("%-10s  %10s  %12s  %6s  %10s  %s\n",
		"variant", "states", "transitions", "depth", "quiescent", "verdict")
	for _, v := range core.Variants {
		res, err := mc.Explore(v.New(in), mc.Options{MaxStates: *maxSt, Invariants: v.Invariants, Reduction: reduction})
		verdict := "all invariants hold"
		if err != nil {
			verdict = err.Error()
		}
		fmt.Printf("%-10s  %10d  %12d  %6d  %10d  %s\n",
			v.Name, res.States, res.Transitions, res.MaxDepth, res.Quiescent, verdict)
		if err != nil {
			return fmt.Errorf("%s: %w", v.Name, err)
		}
	}
	return nil
}
