// Command lrsim runs one link-reversal algorithm on one topology and prints
// run statistics, optionally emitting the final orientation as Graphviz DOT.
//
// Usage:
//
//	lrsim -topo bad-chain -n 16 -alg PR -sched greedy [-seed 1] [-dot] [-check]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	lr "linkreversal"
	"linkreversal/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrsim:", err)
		os.Exit(1)
	}
}

// enum is an enumeration of consecutive values that spell themselves
// with String.
type enum interface {
	~int
	fmt.Stringer
}

// names lists the spellings of the values from first to last.
func names[T enum](first, last T) string {
	var out []string
	for v := first; v <= last; v++ {
		out = append(out, v.String())
	}
	return strings.Join(out, ", ")
}

// parse returns the value from first to last that String spells s,
// ignoring case.
func parse[T enum](kind, s string, first, last T) (T, error) {
	for v := first; v <= last; v++ {
		if strings.EqualFold(s, v.String()) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (%s)", kind, s, names(first, last))
}

func run(args []string) error {
	fs := flag.NewFlagSet("lrsim", flag.ContinueOnError)
	var (
		topoName  = fs.String("topo", "bad-chain", "topology: "+workload.Names)
		n         = fs.Int("n", 16, "topology size parameter")
		p         = fs.Float64("p", 0.3, "edge density for random topologies")
		algName   = fs.String("alg", "PR", "algorithm: "+names(lr.PR, lr.GBPair))
		schedName = fs.String("sched", "greedy", "scheduler: "+names(lr.Greedy, lr.AdversarialMax))
		seed      = fs.Int64("seed", 1, "random seed")
		check     = fs.Bool("check", false, "verify the paper's invariants after every step")
		dot       = fs.Bool("dot", false, "print the final orientation as Graphviz DOT")
		record    = fs.String("record", "", "write the execution as JSON to this file")
		replay    = fs.String("replay", "", "replay a recorded execution instead of scheduling")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	alg, err := parse("algorithm", *algName, lr.PR, lr.GBPair)
	if err != nil {
		return err
	}
	s, err := parse("scheduler", *schedName, lr.Greedy, lr.AdversarialMax)
	if err != nil {
		return err
	}
	topo, err := workload.ByName(*topoName, *n, *p, *seed)
	if err != nil {
		return err
	}
	var rep *lr.Report
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		exec, err := lr.DecodeExecution(f)
		f.Close()
		if err != nil {
			return err
		}
		rep, err = lr.ReplayExecution(topo.Graph, topo.Initial, topo.Dest, alg, exec)
		if err != nil {
			return err
		}
		fmt.Printf("replayed %d recorded steps faithfully\n", rep.Steps)
	} else {
		rep, err = lr.RunTopology(topo, lr.Config{
			Algorithm:       alg,
			Scheduler:       s,
			Seed:            *seed,
			CheckInvariants: *check,
			RecordExecution: *record != "",
		})
		if err != nil {
			return err
		}
	}
	if *record != "" && rep.Execution != nil {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		if err := lr.EncodeExecution(f, rep.Execution); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("execution recorded to %s\n", *record)
	}
	fmt.Printf("topology:             %s (n=%d, m=%d, dest=%d)\n",
		topo.Name, topo.Graph.NumNodes(), topo.Graph.NumEdges(), topo.Dest)
	fmt.Printf("bad nodes initially:  %d\n", len(lr.BadNodes(topo.Initial, topo.Dest)))
	if *replay != "" {
		fmt.Printf("algorithm/scheduler:  %v / (replay of %s)\n", rep.Algorithm, *replay)
	} else {
		fmt.Printf("algorithm/scheduler:  %v / %v\n", rep.Algorithm, rep.Scheduler)
	}
	fmt.Printf("steps:                %d\n", rep.Steps)
	fmt.Printf("total reversals:      %d\n", rep.TotalReversals)
	if rep.Algorithm == lr.NewPR {
		fmt.Printf("dummy steps:          %d\n", rep.DummySteps)
	}
	fmt.Printf("quiesced:             %v\n", rep.Quiesced)
	fmt.Printf("acyclic:              %v\n", rep.Acyclic)
	fmt.Printf("destination oriented: %v\n", rep.DestinationOriented)
	if *check {
		fmt.Printf("invariants:           checked after every step, no violations\n")
	}
	if *dot {
		fmt.Println()
		fmt.Print(lr.ExportDOT(rep.Final, topo.Name, topo.Dest))
	}
	return nil
}
