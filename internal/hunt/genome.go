// Package hunt is a coverage-guided adversarial schedule search: where
// internal/faults *samples* a handful of preset scenarios, hunt *seeks*
// the worst execution the paper's theorems quantify over. Candidates —
// (seed, fault-policy genome, schedule knobs) triples — are driven through
// the internal/dist runtime, scored by a fitness extracted from the run
// (social cost, steps, retransmissions, per-node work skew), kept in a
// corpus of the worst executions seen, and mutated
// splitmix64-deterministically toward even worse ones, the way a fuzzer
// mutates toward new branches. Every run is checked against bound oracles
// encoding the paper's formulas; a breach is delta-debugged down to a
// minimal (scenario, seed) reproducer and emitted as a replayable
// artifact.
package hunt

import (
	"encoding/json"
	"fmt"

	"linkreversal/internal/faults"
)

// GeneKind identifies one fault-policy constructor of internal/faults.
type GeneKind int

const (
	// GeneDrop is probabilistic loss (faults.Drop{P}).
	GeneDrop GeneKind = iota + 1
	// GeneDropFirst is targeted first-K loss (faults.DropFirst{K}).
	GeneDropFirst
	// GeneDuplicate is probabilistic duplication (faults.Duplicate{P, Extra: K}).
	GeneDuplicate
	// GeneDelay is probabilistic holdback (faults.Delay{P, Bound: K}).
	GeneDelay
	// GeneReorder is minimal single-requeue reordering (faults.Reorder{P}).
	GeneReorder
)

var geneKindNames = map[GeneKind]string{
	GeneDrop:      "drop",
	GeneDropFirst: "drop-first",
	GeneDuplicate: "duplicate",
	GeneDelay:     "delay",
	GeneReorder:   "reorder",
}

// String implements fmt.Stringer.
func (k GeneKind) String() string {
	if s, ok := geneKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("GeneKind(%d)", int(k))
}

// MarshalJSON renders the kind as its name, keeping reproducer artifacts
// readable and stable across constant renumbering.
func (k GeneKind) MarshalJSON() ([]byte, error) {
	s, ok := geneKindNames[k]
	if !ok {
		return nil, fmt.Errorf("hunt: unknown gene kind %d", int(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON parses a kind name.
func (k *GeneKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for kind, name := range geneKindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("hunt: unknown gene kind %q", s)
}

// Mutation clamps: every mutated gene stays inside these ranges, which are
// strictly within what faults.Adversary.Validate accepts — the invariant
// the FuzzHuntMutator target pins.
const (
	// maxGenes caps the policy chain length.
	maxGenes = 6
	// maxP caps mutated probabilities below 1: P == 1 on a drop gene would
	// push every payload to the fair-loss bound and drown the search in
	// retransmission floors rather than interesting schedules.
	maxP = 0.95
	// maxK caps the integer parameter (DropFirst.K, Duplicate.Extra,
	// Delay.Bound). The transport clamps harder (maxExtra, maxHold); this
	// cap keeps mutation steps meaningful.
	maxK = 32
	// maxRetryBudget caps mutated retry budgets.
	maxRetryBudget = 64
)

// Gene is one fault policy of a genome's chain, in mutation-friendly form:
// a kind plus the (clamped) probability and integer parameters the kind
// reads.
type Gene struct {
	Kind GeneKind `json:"kind"`
	// P is the probability parameter of Drop/Duplicate/Delay/Reorder genes.
	P float64 `json:"p,omitempty"`
	// K is the integer parameter: DropFirst.K, Duplicate.Extra, Delay.Bound.
	K int `json:"k,omitempty"`
}

// policy builds the faults policy the gene encodes.
func (g Gene) policy() faults.Policy {
	switch g.Kind {
	case GeneDrop:
		return faults.Drop{P: g.P}
	case GeneDropFirst:
		return faults.DropFirst{K: g.K}
	case GeneDuplicate:
		return faults.Duplicate{P: g.P, Extra: g.K}
	case GeneDelay:
		return faults.Delay{P: g.P, Bound: g.K}
	case GeneReorder:
		return faults.Reorder{P: g.P}
	default:
		panic(fmt.Sprintf("hunt: gene kind %d", int(g.Kind)))
	}
}

// String renders the gene compactly for scenario names.
func (g Gene) String() string {
	switch g.Kind {
	case GeneDropFirst:
		return fmt.Sprintf("%s:%d", g.Kind, g.K)
	case GeneDuplicate, GeneDelay:
		return fmt.Sprintf("%s:%.2f/%d", g.Kind, g.P, g.K)
	default:
		return fmt.Sprintf("%s:%.2f", g.Kind, g.P)
	}
}

// Genome is the mutable half of a candidate scenario: the fault-policy
// chain, the adversary seed every fault decision derives from, and the
// fair-loss retry budget. A genome always builds a valid faults.Adversary
// (mutations clamp every parameter), and building is pure — equal genomes
// produce byte-equal adversaries.
type Genome struct {
	Genes []Gene `json:"genes"`
	// Seed is the fault adversary's seed.
	Seed int64 `json:"seed"`
	// RetryBudget is the fair-loss bound; 0 means faults.DefaultRetryBudget.
	RetryBudget int `json:"retry_budget,omitempty"`
}

// Clone returns a deep copy.
func (g Genome) Clone() Genome {
	cp := g
	cp.Genes = append([]Gene(nil), g.Genes...)
	return cp
}

// Scenario names the genome for tables and artifacts, e.g.
// "hunt(drop:0.15+delay:0.50/8)s42".
func (g Genome) Scenario() string {
	s := "hunt("
	for i, gene := range g.Genes {
		if i > 0 {
			s += "+"
		}
		s += gene.String()
	}
	return fmt.Sprintf("%s)s%d", s, g.Seed)
}

// Adversary builds the faults adversary the genome encodes.
func (g Genome) Adversary() *faults.Adversary {
	chain := make(faults.Chain, len(g.Genes))
	for i, gene := range g.Genes {
		chain[i] = gene.policy()
	}
	return &faults.Adversary{
		Policy:      chain,
		Seed:        g.Seed,
		RetryBudget: g.RetryBudget,
		Scenario:    g.Scenario(),
	}
}

// Preset genomes mirroring the internal/faults presets: the
// sampling baseline the hunter must beat.

// LossyGenome mirrors faults.Lossy.
func LossyGenome(seed int64) Genome {
	return Genome{Genes: []Gene{{Kind: GeneDrop, P: 0.15}}, Seed: seed}
}

// FlakyGenome mirrors faults.Flaky.
func FlakyGenome(seed int64) Genome {
	return Genome{Genes: []Gene{
		{Kind: GeneDrop, P: 0.10},
		{Kind: GeneDuplicate, P: 0.10, K: 1},
		{Kind: GeneDelay, P: 0.20, K: 4},
	}, Seed: seed}
}

// AdversarialGenome mirrors faults.Adversarial.
func AdversarialGenome(seed int64) Genome {
	return Genome{Genes: []Gene{
		{Kind: GeneDropFirst, K: 2},
		{Kind: GeneDrop, P: 0.10},
		{Kind: GeneDuplicate, P: 0.25, K: 2},
		{Kind: GeneDelay, P: 0.50, K: 8},
	}, Seed: seed}
}

// PresetGenomes returns the preset baseline in hostility order, matching
// faults.Presets.
func PresetGenomes(seed int64) []Genome {
	return []Genome{LossyGenome(seed), FlakyGenome(seed), AdversarialGenome(seed)}
}

// clampP keeps a mutated probability valid and below the drown-out cap.
func clampP(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > maxP {
		return maxP
	}
	return p
}

// clampK keeps a mutated integer parameter in [lo, maxK].
func clampK(k, lo int) int {
	if k < lo {
		return lo
	}
	if k > maxK {
		return maxK
	}
	return k
}

// randomGene draws a fresh gene with moderate parameters.
func randomGene(r *faults.Rand) Gene {
	kinds := []GeneKind{GeneDrop, GeneDropFirst, GeneDuplicate, GeneDelay, GeneReorder}
	g := Gene{Kind: kinds[r.Intn(len(kinds))]}
	g.P = clampP(0.05 + 0.9*r.Float64())
	switch g.Kind {
	case GeneDropFirst:
		g.K = clampK(1+r.Intn(8), 0)
	case GeneDuplicate:
		g.K = clampK(1+r.Intn(4), 1)
	case GeneDelay:
		g.K = clampK(1+r.Intn(16), 1)
	}
	return g
}

// MutateGenome derives one mutant from g, drawing every decision from r in
// a fixed order: equal (r state, genome) pairs produce equal mutants, so a
// hunt replays from its seed alone. The mutant always builds a valid
// adversary — parameters are clamped into Validate-accepted ranges and the
// chain length stays within [0, maxGenes].
func MutateGenome(r *faults.Rand, g Genome) Genome {
	m := g.Clone()
	switch op := r.Intn(6); op {
	case 0: // Scale one gene's probability, biased upward: the corpus
		// keeps only high-fitness parents, so proposals lean hostile and
		// selection prunes the overshoots.
		if len(m.Genes) > 0 {
			i := r.Intn(len(m.Genes))
			factor := 0.7 + 1.8*r.Float64() // [0.7, 2.5)
			m.Genes[i].P = clampP(m.Genes[i].P*factor + 0.01)
		}
	case 1: // Step one gene's integer parameter, biased upward.
		if len(m.Genes) > 0 {
			i := r.Intn(len(m.Genes))
			delta := 1 + r.Intn(4)
			if r.Intn(3) == 0 {
				delta = -delta
			}
			lo := 0
			if m.Genes[i].Kind == GeneDuplicate || m.Genes[i].Kind == GeneDelay {
				lo = 1
			}
			m.Genes[i].K = clampK(m.Genes[i].K+delta, lo)
		}
	case 2: // Append a fresh gene.
		if len(m.Genes) < maxGenes {
			m.Genes = append(m.Genes, randomGene(r))
		}
	case 3: // Remove one gene.
		if len(m.Genes) > 0 {
			i := r.Intn(len(m.Genes))
			m.Genes = append(m.Genes[:i], m.Genes[i+1:]...)
		}
	case 4: // Reseed the adversary.
		m.Seed = int64(r.Uint64())
	case 5: // Retune the fair-loss retry budget.
		m.RetryBudget = 1 + r.Intn(maxRetryBudget)
	}
	return m
}
