// Package experiments computes the experiment suite E1–E12: one function
// per experiment, each returning a trace.Table. Parameters are explicit so
// benchmarks can scale them. BENCH_dist.json holds the tables of the small
// parameter set, as `go run ./cmd/lrbench -quick -json` writes them.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/dist"
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
	"linkreversal/internal/sched"
	"linkreversal/internal/trace"
	"linkreversal/internal/workload"
)

// Suite bundles the experiment parameters (Defaults returns the full set).
type Suite struct {
	// Sizes for the acyclicity/invariant sweeps (graph node counts).
	Sizes []int
	// WorstCaseNB are the bad-chain n_b values of E4.
	WorstCaseNB []int
	// Densities are the edge probabilities of E5.
	Densities []float64
	// Seeds per configuration.
	Seeds int
	// Partition selects the node-to-shard assignment for E8 (lrbench
	// -partition); 0 means block.
	Partition dist.Partition
	// Faults optionally injects a network adversary into every distributed
	// run of E7/E8 (lrbench -faults); nil means a reliable network. The
	// fault columns of E8 then report what the adversary did.
	Faults *faults.Adversary
}

// Defaults returns the full parameter set, which lrbench runs without
// -quick.
func Defaults() Suite {
	return Suite{
		Sizes:       []int{8, 16, 32, 64},
		WorstCaseNB: []int{4, 8, 16, 32, 64, 128},
		Densities:   []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		Seeds:       5,
	}
}

func (s Suite) seeds() int {
	if s.Seeds <= 0 {
		return 3
	}
	return s.Seeds
}

// e1e2Variants are the variants E1 and E2 report: the five that lr.Run
// exposes. GBFull, the last entry of core.Variants, is covered by E12.
var e1e2Variants = core.Variants[:len(core.Variants)-1]

// e1Schedulers are the schedulers E1 sweeps: every entry of sched.Table
// but the last, AdversarialMax, which clones the automaton once per
// enabled action.
var e1Schedulers = sched.Table[:len(sched.Table)-1]

// E1Acyclicity checks Theorem 4.3/5.5 across random layered DAGs, all
// variants and all schedulers, with the acyclicity invariant verified after
// every step. The table reports states checked and violations (always 0).
func E1Acyclicity(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E1: acyclicity of every reachable state (Thm 4.3/5.5)",
		"n", "variant", "scheduler", "runs", "states-checked", "violations")
	for _, n := range s.Sizes {
		layers := 3 + n/16
		width := (n - 1) / (layers - 1)
		if width < 1 {
			width = 1
		}
		for seed := 0; seed < s.seeds(); seed++ {
			topo := workload.LayeredDAG(layers, width, 0.4, int64(seed))
			in, err := topo.Init()
			if err != nil {
				return nil, err
			}
			for _, v := range e1e2Variants {
				for _, sn := range e1Schedulers {
					a := v.New(in)
					res, err := sched.Run(a, sn.New(int64(seed)), sched.Options{
						Invariants: []automaton.Invariant{{Name: "acyclic", Check: core.CheckAcyclic}},
					})
					if err != nil {
						return nil, fmt.Errorf("E1 %s/%s: %w", v.Name, sn.Name, err)
					}
					if seed == 0 {
						tb.MustAddRow(trace.I(topo.Graph.NumNodes()), trace.S(v.Name), trace.S(sn.Name),
							trace.I(s.seeds()), trace.I(res.Steps+1), trace.I(0))
					}
				}
			}
		}
	}
	return tb, nil
}

// E2Invariants checks Invariants 4.1 and 4.2 (NewPR) and the Section 3
// properties (PR/OneStepPR) on every reachable state.
func E2Invariants(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E2: paper invariants hold in every reachable state",
		"n", "variant", "invariants", "runs", "violations")
	for _, n := range s.Sizes {
		for seed := 0; seed < s.seeds(); seed++ {
			topo := workload.RandomConnected(n, 0.25, int64(seed))
			in, err := topo.Init()
			if err != nil {
				return nil, err
			}
			for _, v := range e1e2Variants {
				if _, err := sched.Run(v.New(in), sched.NewRandomSingle(int64(seed)), sched.Options{
					Invariants: v.Invariants,
				}); err != nil {
					return nil, fmt.Errorf("E2 %s: %w", v.Name, err)
				}
				if seed == 0 {
					tb.MustAddRow(trace.I(n), trace.S(v.Name), trace.I(len(v.Invariants)),
						trace.I(s.seeds()), trace.I(0))
				}
			}
		}
	}
	return tb, nil
}

// E3Simulation drives the PR → OneStepPR → NewPR simulation relations to
// quiescence over random graphs, checking R′ and R at every correspondence
// point (Theorems 5.2 and 5.4).
func E3Simulation(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E3: simulation relations R' and R (Thms 5.2/5.4)",
		"n", "runs", "PR-steps", "NewPR-steps", "dummy-steps", "violations")
	for _, n := range s.Sizes {
		totalPR, totalNew, totalDummy := 0, 0, 0
		for seed := 0; seed < s.seeds(); seed++ {
			topo := workload.RandomConnected(n, 0.25, int64(seed+100))
			in, err := topo.Init()
			if err != nil {
				return nil, err
			}
			d := core.NewSimulationDriver(in)
			if err := d.Run(rand.New(rand.NewSource(int64(seed)))); err != nil {
				return nil, fmt.Errorf("E3 n=%d seed=%d: %w", n, seed, err)
			}
			totalPR += d.PR().Steps()
			totalNew += d.NewPR().Steps()
			totalDummy += d.NewPR().DummySteps()
		}
		tb.MustAddRow(trace.I(n), trace.I(s.seeds()), trace.I(totalPR),
			trace.I(totalNew), trace.I(totalDummy), trace.I(0))
	}
	return tb, nil
}

// E4WorstCase measures total reversals on each algorithm's worst-case
// chain and fits the growth exponents, reproducing the Θ(n_b²) claim: FR is
// quadratic on the all-away BadChain, PR is quadratic on the
// AlternatingChain (and only linear on the BadChain — the contrast behind
// "PR seems much more efficient than FR").
func E4WorstCase(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E4: worst-case total reversals, Θ(n_b²) (Sect. 1, citing [1,2,6])",
		"nb", "FR@bad-chain", "PR@bad-chain", "FR@alt-chain", "PR@alt-chain")
	var xs, frBad, prBad, frAlt, prAlt []float64
	runOne := func(topo *workload.Topology, mk func(*core.Init) automaton.Automaton) (int, error) {
		in, err := topo.Init()
		if err != nil {
			return 0, err
		}
		res, err := sched.Run(mk(in), sched.Greedy{}, sched.Options{})
		if err != nil {
			return 0, fmt.Errorf("E4 %s: %w", topo.Name, err)
		}
		return res.TotalReversals, nil
	}
	mkFR := func(in *core.Init) automaton.Automaton { return core.NewFR(in) }
	mkPR := func(in *core.Init) automaton.Automaton { return core.NewPRAutomaton(in) }
	for _, nb := range s.WorstCaseNB {
		fb, err := runOne(workload.BadChain(nb), mkFR)
		if err != nil {
			return nil, err
		}
		pb, err := runOne(workload.BadChain(nb), mkPR)
		if err != nil {
			return nil, err
		}
		fa, err := runOne(workload.AlternatingChain(nb), mkFR)
		if err != nil {
			return nil, err
		}
		pa, err := runOne(workload.AlternatingChain(nb), mkPR)
		if err != nil {
			return nil, err
		}
		tb.MustAddRow(trace.I(nb), trace.I(fb), trace.I(pb), trace.I(fa), trace.I(pa))
		xs = append(xs, float64(nb))
		frBad = append(frBad, float64(fb))
		prBad = append(prBad, float64(pb))
		frAlt = append(frAlt, float64(fa))
		prAlt = append(prAlt, float64(pa))
	}
	fit := func(ys []float64) trace.Cell {
		k, ok := trace.FitExponent(xs, ys)
		if !ok {
			return trace.S("n/a")
		}
		return trace.F(k)
	}
	tb.MustAddRow(trace.S("fit k"), fit(frBad), fit(prBad), fit(frAlt), fit(prAlt))
	return tb, nil
}

// E5PRvsFR compares total reversals of PR and FR on layered random DAGs as
// edge density varies (the "PR seems much more efficient" claim).
func E5PRvsFR(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E5: PR vs FR total reversals by density (layered DAGs)",
		"density", "n", "FR-reversals", "PR-reversals", "FR/PR")
	n := s.Sizes[len(s.Sizes)-1]
	layers := 4 + n/16
	width := (n - 1) / (layers - 1)
	if width < 1 {
		width = 1
	}
	for _, p := range s.Densities {
		sumFR, sumPR := 0, 0
		for seed := 0; seed < s.seeds(); seed++ {
			topo := workload.LayeredDAG(layers, width, p, int64(seed))
			in, err := topo.Init()
			if err != nil {
				return nil, err
			}
			resFR, err := sched.Run(core.NewFR(in), sched.Greedy{}, sched.Options{})
			if err != nil {
				return nil, fmt.Errorf("E5 FR p=%.2f: %w", p, err)
			}
			resPR, err := sched.Run(core.NewPRAutomaton(in), sched.Greedy{}, sched.Options{})
			if err != nil {
				return nil, fmt.Errorf("E5 PR p=%.2f: %w", p, err)
			}
			sumFR += resFR.TotalReversals
			sumPR += resPR.TotalReversals
		}
		ratio := 0.0
		if sumPR > 0 {
			ratio = float64(sumFR) / float64(sumPR)
		}
		tb.MustAddRow(trace.F(p), trace.I(1+(layers-1)*width), trace.I(sumFR),
			trace.I(sumPR), trace.F(ratio))
	}
	return tb, nil
}

// E6DummyOverhead quantifies NewPR's dummy steps relative to OneStepPR's
// step count (Section 4.1 discussion) on topologies rich in initial sinks
// and sources.
func E6DummyOverhead(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E6: NewPR dummy-step overhead vs OneStepPR",
		"topology", "OneStepPR-steps", "NewPR-steps", "dummy", "overhead%")
	topos := []*workload.Topology{
		workload.BadChain(32),
		workload.Star(33),
		workload.Ladder(16),
		workload.LayeredDAG(5, 8, 0.5, 1),
		workload.RandomConnected(33, 0.2, 1),
	}
	for _, topo := range topos {
		in, err := topo.Init()
		if err != nil {
			return nil, err
		}
		d := core.NewSimulationDriver(in)
		d.SetCheckEvery(false)
		rng := rand.New(rand.NewSource(9))
		n := in.Graph().NumNodes()
		for step := 0; step < 100*n*n+100 && !d.Quiescent(); step++ {
			var sinks []graph.NodeID
			for _, act := range d.PR().Enabled() {
				sinks = append(sinks, act.Participants()...)
			}
			if err := d.Step([]graph.NodeID{sinks[rng.Intn(len(sinks))]}); err != nil {
				return nil, fmt.Errorf("E6 %s: %w", topo.Name, err)
			}
		}
		one, np := d.OneStepPR().Steps(), d.NewPR().Steps()
		overhead := 0.0
		if one > 0 {
			overhead = 100 * float64(np-one) / float64(one)
		}
		tb.MustAddRow(trace.S(topo.Name), trace.I(one), trace.I(np),
			trace.I(d.NewPR().DummySteps()), trace.F(overhead))
	}
	return tb, nil
}

// E7SocialCost reproduces the shape of the game-theoretic comparison
// (Charron-Bost et al.): on every instance the FR social cost (total
// reversals) is at least the PR social cost, and the per-node maximum is
// reported. Each topology appears twice: once under the sequential
// random-single schedule and once as an asynchronous distributed execution
// (honouring Suite.Faults), whose recorded step linearization is replayed
// into a work profile — so the social-cost accounting covers asynchronous
// and adversarial executions too.
func E7SocialCost(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E7: social cost FR vs PR (per-node reversal counts)",
		"topology", "execution", "FR-social", "PR-social", "FR-max-node", "PR-max-node", "FR>=PR")
	topos := []*workload.Topology{
		workload.BadChain(24),
		workload.Ladder(12),
		workload.Grid(4, 6),
		workload.LayeredDAG(4, 8, 0.4, 2),
		workload.RandomConnected(25, 0.2, 3),
	}
	addRow := func(name, execution string, pFR, pPR *trace.WorkProfile) {
		_, maxFR := pFR.MaxNodeCost()
		_, maxPR := pPR.MaxNodeCost()
		ok := "yes"
		if pFR.SocialCost() < pPR.SocialCost() {
			ok = "NO"
		}
		tb.MustAddRow(trace.S(name), trace.S(execution), trace.I(pFR.SocialCost()), trace.I(pPR.SocialCost()),
			trace.I(maxFR), trace.I(maxPR), trace.S(ok))
	}
	asyncProfile := func(in *core.Init, alg dist.Algorithm) (*trace.WorkProfile, error) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		res, err := dist.RunWith(ctx, in, alg, dist.Options{Adversary: s.Faults})
		if err != nil {
			return nil, err
		}
		twin, err := alg.Twin()
		if err != nil {
			return nil, err
		}
		return trace.WorkProfileFromSteps(twin.New(in), res.Trace)
	}
	for _, topo := range topos {
		in, err := topo.Init()
		if err != nil {
			return nil, err
		}
		resFR, err := sched.Run(core.NewFR(in), sched.NewRandomSingle(1), sched.Options{Record: true})
		if err != nil {
			return nil, fmt.Errorf("E7 FR %s: %w", topo.Name, err)
		}
		resPR, err := sched.Run(core.NewOneStepPR(in), sched.NewRandomSingle(1), sched.Options{Record: true})
		if err != nil {
			return nil, fmt.Errorf("E7 PR %s: %w", topo.Name, err)
		}
		addRow(topo.Name, "sequential", trace.NewWorkProfile(resFR.Execution), trace.NewWorkProfile(resPR.Execution))
		aFR, err := asyncProfile(in, dist.FullReversal)
		if err != nil {
			return nil, fmt.Errorf("E7 async FR %s: %w", topo.Name, err)
		}
		aPR, err := asyncProfile(in, dist.PartialReversal)
		if err != nil {
			return nil, fmt.Errorf("E7 async PR %s: %w", topo.Name, err)
		}
		execution := "async"
		if s.Faults != nil {
			execution = "async/" + s.Faults.Scenario
		}
		addRow(topo.Name, execution, aFR, aPR)
	}
	return tb, nil
}

// E8Distributed runs the asynchronous protocols on the sharded runtime at
// its default GOMAXPROCS shards — under Suite.Faults when a network
// adversary is configured — and compares their work, message and batch
// counts against centralized greedy executions. The partition column names
// the node-to-shard scheme; bytes/node is the heap allocated per node over
// the run, measured from runtime.ReadMemStats deltas. The
// drops/dups/retrans columns report the adversary's interference and the
// retransmissions that neutralized it (all zero on a reliable network).
func E8Distributed(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E8: asynchronous distributed runs",
		"topology", "algorithm", "partition", "messages", "batches", "bytes/node",
		"reversals", "centralized-reversals", "drops", "dups", "retrans", "oriented")
	topos := []*workload.Topology{
		workload.BadChain(16),
		workload.Grid(4, 4),
		workload.LayeredDAG(4, 5, 0.4, 4),
	}
	for _, topo := range topos {
		in, err := topo.Init()
		if err != nil {
			return nil, err
		}
		for _, alg := range []dist.Algorithm{dist.FullReversal, dist.PartialReversal, dist.StaticPartialReversal} {
			twin, err := alg.Twin()
			if err != nil {
				return nil, err
			}
			resC, err := sched.Run(twin.New(in), sched.Greedy{}, sched.Options{})
			if err != nil {
				return nil, fmt.Errorf("E8 centralized %v: %w", alg, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := dist.RunWith(ctx, in, alg, dist.Options{Partition: s.Partition, Adversary: s.Faults})
			runtime.ReadMemStats(&after)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("E8 %s/%v: %w", topo.Name, alg, err)
			}
			bytesPerNode := int(after.TotalAlloc-before.TotalAlloc) / in.Graph().NumNodes()
			partition := s.Partition
			if partition == 0 {
				partition = dist.PartitionBlock
			}
			oriented := "yes"
			if !graph.IsDestinationOriented(res.Final, in.Destination()) {
				oriented = "NO"
			}
			tb.MustAddRow(trace.S(topo.Name), trace.S(alg.String()), trace.S(partition.String()),
				trace.I(res.Stats.Messages), trace.I(res.Stats.Batches), trace.I(bytesPerNode),
				trace.I(res.Stats.TotalReversals), trace.I(resC.TotalReversals),
				trace.I(res.Stats.Drops), trace.I(res.Stats.Dups), trace.I(res.Stats.Retransmits),
				trace.S(oriented))
		}
	}
	return tb, nil
}

// Experiment is one table of the suite: its id and the function that
// computes it.
type Experiment struct {
	ID  string
	Run func(Suite) (*trace.Table, error)
}

// List holds every experiment, E1 to E12, in order.
var List = []Experiment{
	{"E1", E1Acyclicity}, {"E2", E2Invariants}, {"E3", E3Simulation},
	{"E4", E4WorstCase}, {"E5", E5PRvsFR}, {"E6", E6DummyOverhead},
	{"E7", E7SocialCost}, {"E8", E8Distributed}, {"E9", E9Rounds},
	{"E10", E10Churn}, {"E11", E11DistributedChurn}, {"E12", E12Exhaustive},
}

// All runs every experiment with the given suite parameters.
func All(s Suite) ([]*trace.Table, error) {
	tables := make([]*trace.Table, 0, len(List))
	for _, e := range List {
		tb, err := e.Run(s)
		if err != nil {
			return tables, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}
