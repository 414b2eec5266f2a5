// Command lrbench runs the experiment suite E1–E12 and prints the tables
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	lrbench [-quick] [-csv|-json] [-only E4]
//	        [-partition block|hash|locality]
//	        [-faults none|lossy|flaky|adversarial] [-seed 7]
//
// With -json the selected experiments are emitted as one JSON array of
// {title, columns, rows, scenario, seed} table objects — the
// machine-readable format CI archives (BENCH_dist.json) to track the
// performance trajectory across commits. Every table is stamped with the
// fault scenario, the non-default -partition scheme and the seed it ran
// under, so any benchmark or adversarial row is reproducible from its
// JSON artifact alone.
//
// With -faults the distributed experiments (E7 async rows, E8) run under
// the selected seeded network adversary: messages are dropped, duplicated
// and delayed, and the E8 drops/dups/retrans columns report the
// interference alongside the retransmissions that neutralized it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"linkreversal/internal/dist"
	"linkreversal/internal/experiments"
	"linkreversal/internal/faults"
	"linkreversal/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lrbench", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "use the small parameter set")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut  = fs.Bool("json", false, "emit one JSON array of table objects")
		only     = fs.String("only", "", "run a single experiment (E1..E12)")
		part     = fs.String("partition", "block", "sharded node-to-shard assignment for E8: block, hash or locality")
		faultsIn = fs.String("faults", "off", "network adversary for the distributed experiments: none (or off, reliable), lossy, flaky or adversarial")
		seed     = fs.Int64("seed", 0, "seed of the fault adversary (every adversarial row replays from it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csv && *jsonOut {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	suite := experiments.Defaults()
	if *quick {
		suite = experiments.Suite{
			Sizes:       []int{8, 16},
			WorstCaseNB: []int{4, 8, 16, 32},
			Densities:   []float64{0.2, 0.5, 0.8},
			Seeds:       2,
		}
	}
	var err error
	if suite.Partition, err = dist.ParsePartition(*part); err != nil {
		return err
	}
	if suite.Faults, err = faults.PresetNamed(*faultsIn, *seed); err != nil {
		return err
	}
	scenario := "reliable"
	if suite.Faults != nil {
		scenario = suite.Faults.Scenario
	}
	if suite.Partition != dist.PartitionBlock {
		// Stamp non-default shard assignments into the provenance line so a
		// JSON artifact alone reproduces its -partition invocation.
		scenario += "/partition=" + suite.Partition.String()
	}
	var selected []experiments.Experiment
	var ids []string
	for _, e := range experiments.List {
		ids = append(ids, e.ID)
		if *only == "" || strings.EqualFold(*only, e.ID) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown -only %q (want one of %s)", *only, strings.Join(ids, ", "))
	}
	var tables []*trace.Table
	for _, e := range selected {
		tb, err := e.Run(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		tb.SetProvenance(scenario, *seed)
		switch {
		case *jsonOut:
			tables = append(tables, tb) // emitted as one array after the loop
			continue
		case *csv:
			if err := tb.RenderCSV(os.Stdout); err != nil {
				return err
			}
		default:
			if err := tb.Render(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	if *jsonOut {
		return trace.WriteJSON(os.Stdout, tables)
	}
	return nil
}
