package hunt

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"linkreversal/internal/dist"
)

func runHunt(t *testing.T, cfg Config) *Report {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := h.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestOraclePassesHealthyRuns: on healthy code the paper's bounds hold for
// every hunted execution — a full hunt across topology shapes and protocol
// variants must end with zero breaches, a full evaluation count and a
// score-sorted corpus led by the best find.
func TestOraclePassesHealthyRuns(t *testing.T) {
	specs := []TopoSpec{
		{Kind: "bad-chain", N: 10},
		{Kind: "grid", N: 16},
		{Kind: "random", N: 12, Seed: 7},
	}
	for _, spec := range specs {
		for _, alg := range []dist.Algorithm{dist.FullReversal, dist.PartialReversal, dist.StaticPartialReversal} {
			spec, alg := spec, alg
			t.Run(spec.Kind+"/"+alg.String(), func(t *testing.T) {
				t.Parallel()
				rep := runHunt(t, Config{Topo: spec, Alg: alg, Budget: 10, Seed: 11})
				if len(rep.Reproducers) != 0 {
					t.Fatalf("healthy hunt reported breaches: %+v", rep.Reproducers)
				}
				if rep.Evaluations != 10 {
					t.Errorf("evaluations = %d, want 10", rep.Evaluations)
				}
				if rep.Best == nil || rep.PresetBest == nil {
					t.Fatal("missing best / preset-best entries")
				}
				if rep.Best.Score < rep.PresetBest.Score {
					t.Errorf("best %.2f below preset best %.2f", rep.Best.Score, rep.PresetBest.Score)
				}
				for i := 1; i < len(rep.Corpus); i++ {
					if rep.Corpus[i-1].Score < rep.Corpus[i].Score {
						t.Errorf("corpus not sorted at %d: %.2f < %.2f", i, rep.Corpus[i-1].Score, rep.Corpus[i].Score)
					}
				}
			})
		}
	}
}

// TestHunterBeatsPresets: with the retransmission fitness the mutation loop
// must find candidates strictly worse than anything the preset baseline
// samples — the point of searching instead of sampling. FR's message
// pattern is schedule-independent and fault fates are pure functions of
// (seed, link, seq, attempt), so the scores are stable run to run.
func TestHunterBeatsPresets(t *testing.T) {
	rep := runHunt(t, Config{
		Topo:    TopoSpec{Kind: "bad-chain", N: 8},
		Alg:     dist.FullReversal,
		Fitness: FitnessRetrans,
		Budget:  48,
		Seed:    3,
	})
	if len(rep.Reproducers) != 0 {
		t.Fatalf("healthy hunt reported breaches: %+v", rep.Reproducers)
	}
	if rep.Best == nil || rep.PresetBest == nil {
		t.Fatal("missing best / preset-best entries")
	}
	if rep.Best.Score <= rep.PresetBest.Score {
		t.Errorf("hunted best %.2f does not beat preset best %.2f", rep.Best.Score, rep.PresetBest.Score)
	}
	if rep.Best.Preset {
		t.Error("best candidate is a preset — mutation found nothing")
	}
}

// TestSeededMutantOracleFindsBreach is the harness self-test: tightening
// the work-bound constant far below the theorem turns every healthy run
// into a breach, and the hunter must (a) report it, (b) shrink it to the
// minimal reproducer — no genes, minimal topology, the zero-knob
// candidate, a one-step witness — and (c) emit an artifact whose replay
// breaches again.
func TestSeededMutantOracleFindsBreach(t *testing.T) {
	cfg := Config{
		Topo:   TopoSpec{Kind: "bad-chain", N: 8},
		Alg:    dist.FullReversal,
		Budget: 6,
		Seed:   7,
		Oracle: Oracle{WorkFactor: 0.01},
	}
	rep := runHunt(t, cfg)
	if len(rep.Reproducers) == 0 {
		t.Fatal("tightened oracle found no breach")
	}
	r0 := rep.Reproducers[0]
	if r0.Breaches[0].Oracle != "work-per-node" {
		t.Errorf("first breach = %s, want work-per-node", r0.Breaches[0].Oracle)
	}
	if r0.Topo.N != minTopoN {
		t.Errorf("topology not shrunk: N = %d, want %d", r0.Topo.N, minTopoN)
	}
	if len(r0.Candidate.Genome.Genes) != 0 {
		t.Errorf("gene chain not shrunk: %v", r0.Candidate.Genome.Genes)
	}
	if c := r0.Candidate; c.PerNode || c.Shards != 0 || c.Partition != 0 {
		t.Errorf("schedule knobs not shrunk: %+v", c)
	}
	if r0.WitnessLen != 1 {
		t.Errorf("witness length = %d, want 1 (first step crosses the tightened bound)", r0.WitnessLen)
	}
	if r0.ShrinkRuns == 0 {
		t.Error("shrinker spent no runs")
	}
	if len(r0.Events) == 0 || len(r0.Events) > reproTail {
		t.Errorf("artifact carries %d flight-recorder events, want 1..%d", len(r0.Events), reproTail)
	}

	// The artifact must survive a JSON round trip and still reproduce.
	raw, err := json.Marshal(r0)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Reproducer
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Events) != len(r0.Events) || decoded.Events[0].Kind != r0.Events[0].Kind {
		t.Errorf("event tail lost in round trip: %d/%d", len(decoded.Events), len(r0.Events))
	}
	breaches, err := Replay(context.Background(), cfg.Oracle, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(breaches) == 0 {
		t.Error("replayed reproducer did not breach")
	}
}

// TestShrinkTailWithoutReduction: a breach that is already minimal gets
// no confirming run from the shrinker, and evaluate arms no flight
// recorder, so the tail must come from one observed re-run of the
// candidate as evaluated.
func TestShrinkTailWithoutReduction(t *testing.T) {
	h, err := New(Config{
		Topo:   TopoSpec{Kind: "bad-chain", N: minTopoN},
		Alg:    dist.FullReversal,
		Oracle: Oracle{WorkFactor: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.evaluate(context.Background(), Candidate{Genome: Genome{Seed: 7}}, true); err != nil {
		t.Fatal(err)
	}
	if len(h.report.Reproducers) != 1 {
		t.Fatalf("got %d reproducers, want 1", len(h.report.Reproducers))
	}
	r := h.report.Reproducers[0]
	if r.ShrinkRuns != 0 || r.Topo.N != minTopoN {
		t.Errorf("shrinker confirmed a reduction: %d runs, N = %d", r.ShrinkRuns, r.Topo.N)
	}
	if len(r.Events) == 0 || len(r.Events) > reproTail {
		t.Errorf("artifact carries %d flight-recorder events, want 1..%d", len(r.Events), reproTail)
	}
}

// TestReplayCleanUnderHealthyOracle: the same minimal reproducer checked
// against the *untightened* oracle is clean — the breach was the mutant
// constant, not the implementation.
func TestReplayCleanUnderHealthyOracle(t *testing.T) {
	rep := Reproducer{
		Topo:      TopoSpec{Kind: "bad-chain", N: minTopoN},
		Algorithm: "fr",
		Candidate: Candidate{Genome: Genome{Seed: 7}},
	}
	breaches, err := Replay(context.Background(), Oracle{}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(breaches) != 0 {
		t.Errorf("healthy oracle reports breaches: %v", breaches)
	}
}

func TestParseFitness(t *testing.T) {
	for _, want := range []Fitness{FitnessWork, FitnessSteps, FitnessRetrans, FitnessSkew} {
		got, err := ParseFitness(want.String())
		if err != nil || got != want {
			t.Errorf("ParseFitness(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParseFitness("bogus"); err == nil {
		t.Error("ParseFitness accepted bogus")
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]dist.Algorithm{
		"fr": dist.FullReversal, "pr": dist.PartialReversal, "newpr": dist.StaticPartialReversal,
		"dist-FR": dist.FullReversal, "dist-PR": dist.PartialReversal, "dist-NewPR": dist.StaticPartialReversal,
	}
	for s, want := range cases {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("ParseAlgorithm accepted bogus")
	}
}

func TestTopoSpecBuild(t *testing.T) {
	for _, kind := range []string{"bad-chain", "alt-chain", "star", "ladder", "ring", "grid", "tree", "random"} {
		if _, err := (TopoSpec{Kind: kind, N: 6, Seed: 1}).Build(); err != nil {
			t.Errorf("Build(%s): %v", kind, err)
		}
	}
	if _, err := (TopoSpec{Kind: "bogus", N: 6}).Build(); err == nil {
		t.Error("Build accepted unknown kind")
	}
	if _, err := (TopoSpec{Kind: "star", N: 1}).Build(); err == nil {
		t.Error("Build accepted size below the minimum")
	}
}

func TestGeneKindJSONRoundTrip(t *testing.T) {
	g := AdversarialGenome(9)
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Genome
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario() != g.Scenario() {
		t.Errorf("round trip changed genome: %s != %s", back.Scenario(), g.Scenario())
	}
	var bad GeneKind
	if err := bad.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Error("UnmarshalJSON accepted bogus kind")
	}
}

// TestConfigValidation: broken configs are rejected up front.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Topo: TopoSpec{Kind: "bogus", N: 4}, Alg: dist.FullReversal},
		{Topo: TopoSpec{Kind: "star", N: 8}, Alg: dist.Algorithm(99)},
		{Topo: TopoSpec{Kind: "star", N: 8}, Alg: dist.FullReversal, Fitness: Fitness(99)},
		{Topo: TopoSpec{Kind: "star", N: 8}, Alg: dist.FullReversal, Budget: -1},
		{Topo: TopoSpec{Kind: "star", N: 8}, Alg: dist.FullReversal, CorpusSize: -2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
