// Command lrhunt runs the coverage-guided adversarial schedule search of
// internal/hunt: it samples the fault presets as a baseline, then mutates
// (seed, fault-policy, schedule-knob) candidates toward the worst
// execution under the chosen fitness, checking every run against the
// paper's bound oracles. Oracle breaches are shrunk to minimal
// reproducers; the process exits non-zero if any breach survived, so a CI
// job asserts "zero breaches" through the exit code alone.
//
// Usage:
//
//	lrhunt -topo bad-chain -n 1000 -alg fr -fitness retrans -budget 24 \
//	       [-seed 1] [-timeout 5m] [-corpus DIR] [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"linkreversal/internal/hunt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lrhunt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lrhunt", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "bad-chain", "topology: bad-chain, alt-chain, star, ladder, ring, grid, tree, random")
		n        = fs.Int("n", 64, "topology size parameter")
		p        = fs.Float64("p", 0.3, "edge density for random topology")
		algName  = fs.String("alg", "fr", "algorithm: fr, pr, newpr")
		fitName  = fs.String("fitness", "work", "fitness to maximize: work, steps, retrans, skew")
		budget   = fs.Int("budget", 64, "total candidate evaluations (including the preset baseline)")
		seed     = fs.Int64("seed", 1, "hunter seed; the hunt is replayable from it")
		timeout  = fs.Duration("timeout", 0, "wall-clock time box (0 = none); partial results are kept")
		corpus   = fs.String("corpus", "", "directory for corpus.json and reproducer artifacts")
		asJSON   = fs.Bool("json", false, "emit the full report as JSON on stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	alg, err := hunt.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	fitness, err := hunt.ParseFitness(*fitName)
	if err != nil {
		return err
	}
	h, err := hunt.New(hunt.Config{
		Topo:    hunt.TopoSpec{Kind: *topoName, N: *n, P: *p, Seed: *seed},
		Alg:     alg,
		Fitness: fitness,
		Budget:  *budget,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := h.Run(ctx)
	if err != nil {
		return err
	}
	if *corpus != "" {
		if err := writeArtifacts(*corpus, rep); err != nil {
			return err
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		render(rep)
	}
	if len(rep.Reproducers) > 0 {
		return fmt.Errorf("%d oracle breach(es) found", len(rep.Reproducers))
	}
	return nil
}

// render prints the human-readable summary.
func render(rep *hunt.Report) {
	fmt.Printf("hunt on %s, %s, fitness=%s, %d evaluations\n",
		rep.Topology, rep.Algorithm, rep.Fitness, rep.Evaluations)
	if rep.PresetBest != nil {
		fmt.Printf("preset best: %12.2f  %s\n", rep.PresetBest.Score, rep.PresetBest.Candidate.Genome.Scenario())
	}
	if rep.Best != nil {
		fmt.Printf("hunted best: %12.2f  %s\n", rep.Best.Score, rep.Best.Candidate.Genome.Scenario())
		if rep.PresetBest != nil && rep.PresetBest.Score > 0 {
			fmt.Printf("gain over presets: %+.1f%%\n",
				100*(rep.Best.Score-rep.PresetBest.Score)/rep.PresetBest.Score)
		}
	}
	fmt.Printf("corpus (%d):\n", len(rep.Corpus))
	for _, ev := range rep.Corpus {
		tag := " "
		if ev.Preset {
			tag = "p"
		}
		fmt.Printf("  %s %12.2f  steps=%-8d work=%-8d retrans=%-8d skew=%.2f  %s/%s\n",
			tag, ev.Score, ev.Stats.Steps, ev.Stats.TotalReversals, ev.Stats.Retransmits,
			ev.Skew, ev.Candidate.Layout(), ev.Candidate.Genome.Scenario())
	}
	for i, r := range rep.Reproducers {
		fmt.Printf("BREACH %d: %s (shrunk to %s n=%d, %d shrink runs, witness %d, %d recorded events)\n",
			i, r.Breaches[0], r.Topo.Kind, r.Topo.N, r.ShrinkRuns, r.WitnessLen, len(r.Events))
	}
}

// writeArtifacts persists the corpus and one replayable reproducer file
// per breach into dir.
func writeArtifacts(dir string, rep *hunt.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, v any) error {
		raw, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
	}
	if err := write("corpus.json", rep); err != nil {
		return err
	}
	for i, r := range rep.Reproducers {
		if err := write(fmt.Sprintf("reproducer-%d.json", i), r); err != nil {
			return err
		}
	}
	return nil
}
