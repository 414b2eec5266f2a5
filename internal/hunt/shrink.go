package hunt

import (
	"context"
	"fmt"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/dist"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

// Reproducer is the replayable artifact of an oracle breach: the smallest
// (topology, candidate) pair shrinking could confirm still breaches, plus
// the breach verdicts of that minimal run. Everything needed to re-run it
// is in the artifact — Replay rebuilds the topology from the spec and the
// adversary from the genome, both deterministic in their seeds.
type Reproducer struct {
	Topo      TopoSpec  `json:"topology"`
	Algorithm string    `json:"algorithm"`
	Candidate Candidate `json:"candidate"`
	// Breaches are the verdicts of the minimal run (at least one).
	Breaches []Breach `json:"breaches"`
	// WitnessLen is the length of the shortest trace prefix exhibiting the
	// first breach, when the breach is localizable to a step; 0 otherwise.
	WitnessLen int `json:"witness_len,omitempty"`
	// ShrinkRuns is the number of re-executions minimization spent.
	ShrinkRuns int `json:"shrink_runs"`
	// Events is the flight recorder's tail from the confirming run: the
	// last protocol events (reversals, acks, retransmits) before the breach
	// verdict, recorded with sampling seeded from the genome so a replay of
	// the artifact observes the same sampled multiset.
	Events []obs.Event `json:"events,omitempty"`
}

// ParseAlgorithm parses a protocol name: the short lrhunt spellings (fr,
// pr, newpr) and the dist.Algorithm String forms found in artifacts.
func ParseAlgorithm(s string) (dist.Algorithm, error) {
	switch s {
	case "fr", "dist-FR":
		return dist.FullReversal, nil
	case "pr", "dist-PR":
		return dist.PartialReversal, nil
	case "newpr", "dist-NewPR":
		return dist.StaticPartialReversal, nil
	default:
		return 0, fmt.Errorf("%w: %q (want fr, pr or newpr)", dist.ErrUnknownAlgorithm, s)
	}
}

// Replay re-runs a reproducer and re-checks it against the oracle,
// returning the breaches of the fresh run. An empty result means the
// breach did not reproduce (runs under probabilistic schedules can flake;
// the shrinker only emits configurations it re-confirmed at least once).
func Replay(ctx context.Context, o Oracle, rep Reproducer) ([]Breach, error) {
	alg, err := ParseAlgorithm(rep.Algorithm)
	if err != nil {
		return nil, err
	}
	topo, err := rep.Topo.Build()
	if err != nil {
		return nil, err
	}
	in, err := topo.Init()
	if err != nil {
		return nil, err
	}
	opts := rep.Candidate.options()
	res, err := dist.RunWith(ctx, in, alg, opts)
	if err != nil {
		return nil, err
	}
	breaches, _ := o.Check(in, alg, opts.Adversary, res)
	return breaches, nil
}

// shrink delta-debugs a breaching candidate toward the minimal reproducer:
// drop genes one at a time to a fixpoint, halve scalar parameters, zero the
// schedule knobs and the retry budget, then halve the topology — keeping
// each reduction only if a fresh run still breaches. Every confirming run
// costs one execution; the budget caps the total. The returned artifact
// describes the last configuration whose breach was confirmed, with the
// flight-recorder tail of the run that confirmed it. When no reduction
// confirmed, the candidate as evaluated is that configuration, and one
// observed re-run of it, outside the budget, supplies the tail.
func (h *Hunter) shrink(ctx context.Context, cand Candidate, res *dist.Result, breaches []Breach) Reproducer {
	spec := h.cfg.Topo
	runs := 0
	lastIn, lastRes, lastBreaches := h.in, res, breaches
	var tail []obs.Event

	check := func(s TopoSpec, c Candidate) bool {
		if runs >= h.cfg.ShrinkBudget || ctx.Err() != nil {
			return false
		}
		runs++
		topo, err := s.Build()
		if err != nil {
			return false
		}
		in, err := topo.Init()
		if err != nil {
			return false
		}
		opts, o := observed(c)
		r, err := dist.RunWith(ctx, in, h.cfg.Alg, opts)
		if err != nil {
			return false
		}
		br, _ := h.cfg.Oracle.Check(in, h.cfg.Alg, opts.Adversary, r)
		if len(br) == 0 {
			return false
		}
		lastIn, lastRes, lastBreaches = in, r, br
		tail = o.Tail(reproTail)
		return true
	}

	// Phase 1: remove genes one at a time until no removal survives.
	for changed := true; changed; {
		changed = false
		for i := len(cand.Genome.Genes) - 1; i >= 0; i-- {
			t := cand
			t.Genome = cand.Genome.Clone()
			t.Genome.Genes = append(t.Genome.Genes[:i], t.Genome.Genes[i+1:]...)
			if check(spec, t) {
				cand, changed = t, true
			}
		}
	}

	// Phase 2: halve the surviving genes' scalars while the breach holds.
	for i := range cand.Genome.Genes {
		for pass := 0; pass < 2; pass++ {
			t := cand
			t.Genome = cand.Genome.Clone()
			g := &t.Genome.Genes[i]
			lo := 0
			if g.Kind == GeneDuplicate || g.Kind == GeneDelay {
				lo = 1
			}
			g.P, g.K = g.P/2, clampK(g.K/2, lo)
			if g.P == cand.Genome.Genes[i].P && g.K == cand.Genome.Genes[i].K {
				break
			}
			if !check(spec, t) {
				break
			}
			cand = t
		}
	}

	// Phase 3: restore the default retry budget and schedule knobs — the
	// zero-valued candidate is the simplest artifact.
	if cand.Genome.RetryBudget != 0 {
		t := cand
		t.Genome = cand.Genome.Clone()
		t.Genome.RetryBudget = 0
		if check(spec, t) {
			cand = t
		}
	}
	if cand.PerNode || cand.Shards != 0 || cand.Partition != 0 {
		t := cand
		t.PerNode, t.Shards, t.Partition = false, 0, 0
		if check(spec, t) {
			cand = t
		}
	}

	// Phase 4: halve the topology while the breach holds.
	for spec.N > minTopoN {
		t := spec
		if t.N = spec.N / 2; t.N < minTopoN {
			t.N = minTopoN
		}
		if !check(t, cand) {
			break
		}
		spec = t
	}

	if tail == nil {
		opts, o := observed(cand)
		if _, err := dist.RunWith(ctx, lastIn, h.cfg.Alg, opts); err == nil {
			tail = o.Tail(reproTail)
		}
	}

	return Reproducer{
		Topo:       spec,
		Algorithm:  h.cfg.Alg.String(),
		Candidate:  cand,
		Breaches:   lastBreaches,
		WitnessLen: h.cfg.Oracle.witness(lastIn, h.cfg.Alg, lastRes.Trace, lastBreaches[0]),
		ShrinkRuns: runs,
		Events:     tail,
	}
}

// witness computes the length of the shortest trace prefix exhibiting the
// breach: replay- and invariant-breaches carry their step index, work
// breaches are scanned for the first step whose cumulative count crosses
// the bound. Whole-run breaches with no localizable step yield 0.
func (o Oracle) witness(in *core.Init, alg dist.Algorithm, steps []graph.NodeID, b Breach) int {
	if len(steps) == 0 {
		return 0
	}
	if b.Step >= 0 {
		return b.Step + 1
	}
	c := o.factor()
	nb := len(graph.BadNodes(in.InitialOrientation(), in.Destination()))
	n := in.Graph().NumNodes()
	switch b.Oracle {
	case "work-per-node":
		bound := c * float64(nb+1)
		count := make(map[graph.NodeID]int, n)
		for i, u := range steps {
			if count[u]++; float64(count[u]) > bound {
				return i + 1
			}
		}
	case "steps-total":
		if bound := int(c*float64(nb)*float64(n) + float64(n)); bound+1 <= len(steps) {
			return bound + 1
		}
	case "work-total":
		v, err := alg.Twin()
		if err != nil {
			return 0
		}
		a := v.New(in)
		bound := c*float64(nb)*float64(n) + float64(n)
		for i, u := range steps {
			if a.Step(automaton.ReverseNode{U: u}) != nil {
				return 0
			}
			if float64(a.TotalReversals()) > bound {
				return i + 1
			}
		}
	}
	return 0
}
