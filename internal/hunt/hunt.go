package hunt

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"linkreversal/internal/core"
	"linkreversal/internal/dist"
	"linkreversal/internal/faults"
	"linkreversal/internal/obs"
	"linkreversal/internal/workload"
)

// reproTail is how many flight-recorder events a Reproducer carries: the
// tail of the confirming run's protocol events, enough to see what led up
// to the breach without bloating the artifact.
const reproTail = 64

// observed assembles the candidate's run options with a fresh flight
// recorder armed, seeded from the genome so the sampled event multiset is
// reproducible from the artifact alone. Observers are stateful per run —
// never share one across executions.
func observed(c Candidate) (dist.Options, *obs.Observer) {
	o := obs.New()
	o.Seed = c.Genome.Seed
	opts := c.options()
	opts.Observer = o
	return opts, o
}

// perNodeShards is the shard count of a PerNode candidate. dist.RunWith
// clamps Shards to the node count, so topologies of up to perNodeShards
// nodes run one node per shard; larger ones run perNodeShards shards,
// because one node per shard costs n² outbox pointers (128 MB at 4k
// nodes).
const perNodeShards = 2048

// Candidate is one point of the search space: the fault genome plus the
// schedule knobs that pick how the shards run it. The shard layout is part
// of the space — the hunter flips between one node per shard and a few
// shards the same way it retunes drop probabilities.
type Candidate struct {
	Genome Genome `json:"genome"`
	// PerNode runs one node per shard (see perNodeShards): every node on
	// its own goroutine with its own inbox, the finest-grained
	// asynchrony. It overrides Shards.
	PerNode bool `json:"per_node,omitempty"`
	// Shards is the shard count; 0 means GOMAXPROCS.
	Shards int `json:"shards,omitempty"`
	// Partition is the node-to-shard assignment; 0 means block.
	Partition dist.Partition `json:"partition,omitempty"`
}

// Layout names the candidate's shard layout for reports.
func (c Candidate) Layout() string {
	if c.PerNode {
		return "per-node"
	}
	return "sharded"
}

// options assembles the dist options the candidate encodes. The trace is
// always recorded (the default): the oracles replay it, and the skew
// fitness reads the work profile of that replay.
func (c Candidate) options() dist.Options {
	shards := c.Shards
	if c.PerNode {
		shards = perNodeShards
	}
	return dist.Options{
		Shards:    shards,
		Partition: c.Partition,
		Adversary: c.Genome.Adversary(),
	}
}

// MutateCandidate derives one mutant candidate, usually by mutating the
// genome and occasionally by flipping a schedule knob. Like MutateGenome it
// draws every decision from r in a fixed order and always yields a
// candidate dist.RunWith accepts.
func MutateCandidate(r *faults.Rand, c Candidate) Candidate {
	m := c
	m.Genome = c.Genome.Clone()
	if r.Intn(4) != 0 {
		m.Genome = MutateGenome(r, m.Genome)
		return m
	}
	switch r.Intn(3) {
	case 0: // Flip between one node per shard and the Shards gene.
		m.PerNode = !m.PerNode
	case 1: // Retune the shard count.
		m.Shards = []int{0, 2, 3, 5}[r.Intn(4)]
	case 2: // Swap the partition scheme.
		m.Partition = []dist.Partition{dist.PartitionBlock, dist.PartitionHash, dist.PartitionLocality}[r.Intn(3)]
	}
	return m
}

// Evaluated is one scored candidate.
type Evaluated struct {
	Candidate Candidate `json:"candidate"`
	// Score is the fitness value (higher = worse execution = better find).
	Score float64 `json:"score"`
	// Skew is the work-imbalance measure of the run, reported regardless of
	// the fitness in use.
	Skew  float64    `json:"skew"`
	Stats dist.Stats `json:"stats"`
	// Preset marks baseline candidates sampled from the faults presets
	// rather than found by mutation.
	Preset bool `json:"preset,omitempty"`
}

// Report is the outcome of a hunt: the preset-sampled baseline, the worst
// execution found, the final corpus (descending score) and the shrunk
// reproducers of every oracle breach.
type Report struct {
	Topology    string       `json:"topology"`
	Algorithm   string       `json:"algorithm"`
	Fitness     string       `json:"fitness"`
	Evaluations int          `json:"evaluations"`
	PresetBest  *Evaluated   `json:"preset_best,omitempty"`
	Best        *Evaluated   `json:"best,omitempty"`
	Corpus      []Evaluated  `json:"corpus"`
	Reproducers []Reproducer `json:"reproducers,omitempty"`
}

// Config tunes a Hunter.
type Config struct {
	// Topo describes the instance hunted on.
	Topo TopoSpec
	// Alg is the protocol variant under attack.
	Alg dist.Algorithm
	// Fitness selects what the search maximizes; 0 means FitnessWork.
	Fitness Fitness
	// Budget is the total number of candidate evaluations, including the
	// preset baseline; 0 means 64.
	Budget int
	// Seed drives both the hunter's mutation stream and the preset
	// baseline's adversary seeds; a hunt is replayable from (Config, Seed).
	Seed int64
	// CorpusSize caps the kept high-fitness candidates; 0 means 8.
	CorpusSize int
	// Oracle configures the bound checks applied to every run.
	Oracle Oracle
	// ShrinkBudget caps the re-executions spent minimizing each breach;
	// 0 means 32.
	ShrinkBudget int
}

// withDefaults validates cfg and fills the zero-value defaults.
func (cfg Config) withDefaults() (Config, error) {
	if _, err := cfg.Topo.Build(); err != nil {
		return cfg, err
	}
	switch cfg.Alg {
	case dist.FullReversal, dist.PartialReversal, dist.StaticPartialReversal:
	default:
		return cfg, fmt.Errorf("%w: %d", dist.ErrUnknownAlgorithm, int(cfg.Alg))
	}
	if cfg.Fitness == 0 {
		cfg.Fitness = FitnessWork
	}
	if _, ok := fitnessNames[cfg.Fitness]; !ok {
		return cfg, fmt.Errorf("hunt: unknown fitness %d", int(cfg.Fitness))
	}
	if cfg.Budget == 0 {
		cfg.Budget = 64
	}
	if cfg.Budget < 0 {
		return cfg, fmt.Errorf("hunt: negative budget %d", cfg.Budget)
	}
	if cfg.CorpusSize == 0 {
		cfg.CorpusSize = 8
	}
	if cfg.CorpusSize < 1 {
		return cfg, fmt.Errorf("hunt: corpus size %d below 1", cfg.CorpusSize)
	}
	if cfg.ShrinkBudget == 0 {
		cfg.ShrinkBudget = 32
	}
	return cfg, nil
}

// Hunter runs the adversarial search.
type Hunter struct {
	cfg  Config
	topo *workload.Topology
	in   *core.Init
	rng  *faults.Rand

	evals  int
	corpus []Evaluated
	report Report
}

// New validates cfg and prepares a hunter.
func New(cfg Config) (*Hunter, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	topo, err := cfg.Topo.Build()
	if err != nil {
		return nil, err
	}
	in, err := topo.Init()
	if err != nil {
		return nil, err
	}
	return &Hunter{
		cfg:  cfg,
		topo: topo,
		in:   in,
		// Offset the stream so a hunter seeded s and an adversary seeded s
		// do not share their first draws.
		rng: faults.NewRand(uint64(cfg.Seed) ^ 0x68756e74),
	}, nil
}

// stop reports whether err means "the time box closed" rather than a
// failure: a hunt under a deadline keeps its partial findings.
func stop(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// evaluate runs one candidate, scores it, and checks every oracle;
// breaches are shrunk and recorded immediately. It arms no flight
// recorder: only a reproducer carries events, and the shrinker records
// them on the run it confirms.
func (h *Hunter) evaluate(ctx context.Context, cand Candidate, preset bool) (*Evaluated, error) {
	opts := cand.options()
	res, err := dist.RunWith(ctx, h.in, h.cfg.Alg, opts)
	if err != nil {
		return nil, err
	}
	h.evals++
	breaches, profile := h.cfg.Oracle.Check(h.in, h.cfg.Alg, opts.Adversary, res)
	skew := profile.Skew()
	ev := &Evaluated{
		Candidate: cand,
		Score:     h.cfg.Fitness.score(res, skew),
		Skew:      skew,
		Stats:     res.Stats,
		Preset:    preset,
	}
	if len(breaches) > 0 {
		rep := h.shrink(ctx, cand, res, breaches)
		h.report.Reproducers = append(h.report.Reproducers, rep)
	}
	return ev, nil
}

// admit inserts ev into the score-sorted corpus, evicting the weakest
// entry past the cap.
func (h *Hunter) admit(ev *Evaluated) {
	h.corpus = append(h.corpus, *ev)
	sort.SliceStable(h.corpus, func(i, j int) bool { return h.corpus[i].Score > h.corpus[j].Score })
	if len(h.corpus) > h.cfg.CorpusSize {
		h.corpus = h.corpus[:h.cfg.CorpusSize]
	}
}

// Run executes the hunt: the preset baseline first (every faults preset at
// one node per shard, then at the default shard count), then mutation of
// the corpus until the evaluation budget or the context deadline is spent.
// A closed context is not an error — the report carries whatever was found
// inside the time box.
func (h *Hunter) Run(ctx context.Context) (*Report, error) {
	h.report = Report{
		Topology:  h.topo.Name,
		Algorithm: h.cfg.Alg.String(),
		Fitness:   h.cfg.Fitness.String(),
	}
	for _, g := range PresetGenomes(h.cfg.Seed) {
		for _, perNode := range []bool{true, false} {
			if ctx.Err() != nil || h.evals >= h.cfg.Budget {
				break
			}
			ev, err := h.evaluate(ctx, Candidate{Genome: g, PerNode: perNode}, true)
			if err != nil {
				if stop(err) {
					break
				}
				return nil, err
			}
			if h.report.PresetBest == nil || ev.Score > h.report.PresetBest.Score {
				h.report.PresetBest = ev
			}
			h.admit(ev)
		}
	}
	for h.evals < h.cfg.Budget && ctx.Err() == nil && len(h.corpus) > 0 {
		parent := h.corpus[h.rng.Intn(len(h.corpus))].Candidate
		ev, err := h.evaluate(ctx, MutateCandidate(h.rng, parent), false)
		if err != nil {
			if stop(err) {
				break
			}
			return nil, err
		}
		h.admit(ev)
	}
	h.report.Evaluations = h.evals
	h.report.Corpus = h.corpus
	if len(h.corpus) > 0 {
		h.report.Best = &h.corpus[0]
	}
	return &h.report, nil
}
