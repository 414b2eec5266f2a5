// Command lrverify machine-checks the paper's results on randomized
// executions: every invariant of Sections 3 and 4 on every reachable state
// of every variant, and the simulation relations R′ and R of Section 5 at
// every correspondence point. A non-zero exit code means a theorem was
// falsified (it never is).
//
// Usage:
//
//	lrverify [-runs 50] [-maxn 32] [-seed 1] [-v]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	lr "linkreversal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrverify:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lrverify", flag.ContinueOnError)
	var (
		runs    = fs.Int("runs", 50, "number of randomized configurations")
		maxN    = fs.Int("maxn", 32, "maximum graph size")
		seed    = fs.Int64("seed", 1, "base random seed")
		verbose = fs.Bool("v", false, "print every configuration")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 0 {
		return fmt.Errorf("bad -runs %d: want >= 0", *runs)
	}
	if *maxN < 4 {
		return fmt.Errorf("bad -maxn %d: want >= 4", *maxN)
	}
	rng := rand.New(rand.NewSource(*seed))
	algs := []lr.Algorithm{lr.PR, lr.OneStepPR, lr.NewPR, lr.FR, lr.GBPair}
	scheds := []lr.Scheduler{lr.Greedy, lr.RandomSingle, lr.RandomSubset, lr.RoundRobin, lr.LIFO}
	statesChecked := 0
	for i := 0; i < *runs; i++ {
		n := 4 + rng.Intn(*maxN-3)
		p := 0.1 + rng.Float64()*0.5
		topoSeed := rng.Int63()
		topo := lr.RandomConnected(n, p, topoSeed)

		// Phase 1: invariants on every reachable state, all variants and
		// schedulers.
		for _, alg := range algs {
			for _, s := range scheds {
				rep, err := lr.RunTopology(topo, lr.Config{
					Algorithm:       alg,
					Scheduler:       s,
					Seed:            topoSeed,
					CheckInvariants: true,
				})
				if err != nil {
					return fmt.Errorf("run %d (%s, %v/%v): %w", i, topo.Name, alg, s, err)
				}
				if !rep.DestinationOriented || !rep.Acyclic {
					return fmt.Errorf("run %d (%s, %v/%v): bad final state %+v",
						i, topo.Name, alg, s, rep)
				}
				statesChecked += rep.Steps + 1
			}
		}

		// Phase 2: simulation relations.
		simRep, err := lr.VerifySimulation(topo, topoSeed)
		if err != nil {
			return fmt.Errorf("run %d (%s): simulation: %w", i, topo.Name, err)
		}
		if !simRep.OrientationsEq {
			return fmt.Errorf("run %d (%s): final orientations differ across variants", i, topo.Name)
		}
		if *verbose {
			fmt.Printf("run %3d  %-24s  PR=%4d steps  NewPR=%4d steps (%d dummy)  ok\n",
				i, topo.Name, simRep.PRSteps, simRep.NewPRSteps, simRep.DummySteps)
		}
	}
	fmt.Printf("lrverify: %d configurations × %d variants × %d schedulers, %d states checked: all invariants and simulation relations hold\n",
		*runs, len(algs), len(scheds), statesChecked)
	return nil
}
