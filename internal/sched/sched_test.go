package sched_test

import (
	"errors"
	"testing"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/sched"
	"linkreversal/internal/workload"
)

func TestGreedyBatchesAllSinks(t *testing.T) {
	// Star with destination at the hub: all leaves are sinks; greedy must
	// schedule them as one set action, so the run takes exactly 1 step.
	in := workload.Star(6).MustInit()
	pr := core.NewPRAutomaton(in)
	res, err := sched.Run(pr, sched.Greedy{}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 1 {
		t.Errorf("greedy steps = %d, want 1", res.Steps)
	}
	if res.TotalReversals != 5 {
		t.Errorf("reversals = %d, want 5", res.TotalReversals)
	}
	if !res.Quiesced {
		t.Error("should quiesce")
	}
}

func TestGreedySingleActionAutomaton(t *testing.T) {
	// NewPR only supports single-node actions; greedy must fall back.
	in := workload.Star(4).MustInit()
	np := core.NewNewPR(in)
	res, err := sched.Run(np, sched.Greedy{}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 3 {
		t.Errorf("steps = %d, want 3 (one per leaf)", res.Steps)
	}
}

func TestRandomSingleReproducible(t *testing.T) {
	topo := workload.LayeredDAG(4, 3, 0.4, 99)
	in := topo.MustInit()
	run := func(seed int64) *sched.Result {
		a := core.NewOneStepPR(in)
		res, err := sched.Run(a, sched.NewRandomSingle(seed), sched.Options{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(7), run(7)
	if r1.Steps != r2.Steps || r1.TotalReversals != r2.TotalReversals {
		t.Error("same seed must reproduce the same run")
	}
	if r1.Execution.Len() != r2.Execution.Len() {
		t.Error("recorded executions differ for same seed")
	}
	for i := range r1.Execution.Records {
		if r1.Execution.Records[i].Action.String() != r2.Execution.Records[i].Action.String() {
			t.Fatalf("step %d differs", i)
		}
	}
}

func TestAllSchedulersQuiesce(t *testing.T) {
	topo := workload.LayeredDAG(5, 3, 0.4, 5)
	in := topo.MustInit()
	for _, entry := range sched.Table {
		t.Run(entry.Name, func(t *testing.T) {
			a := core.NewPRAutomaton(in)
			res, err := sched.Run(a, entry.New(1), sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Quiesced {
				t.Error("did not quiesce")
			}
			if !graph.IsDestinationOriented(a.Orientation(), a.Destination()) {
				t.Error("not destination oriented")
			}
			if res.Algorithm != "PR" || res.Scheduler != entry.Name {
				t.Errorf("result labels: %q/%q", res.Algorithm, res.Scheduler)
			}
		})
	}
}

func TestStepLimit(t *testing.T) {
	in := workload.BadChain(20).MustInit()
	a := core.NewOneStepPR(in)
	_, err := sched.Run(a, sched.NewRandomSingle(1), sched.Options{MaxSteps: 3})
	if !errors.Is(err, sched.ErrStepLimit) {
		t.Errorf("error = %v, want ErrStepLimit", err)
	}
}

type stallScheduler struct{}

func (stallScheduler) Name() string { return "stall" }
func (stallScheduler) Pick(automaton.Automaton, []automaton.Action) automaton.Action {
	return nil
}

func TestSchedulerStall(t *testing.T) {
	in := workload.BadChain(3).MustInit()
	a := core.NewOneStepPR(in)
	_, err := sched.Run(a, stallScheduler{}, sched.Options{})
	if !errors.Is(err, sched.ErrSchedulerStall) {
		t.Errorf("error = %v, want ErrSchedulerStall", err)
	}
}

func TestInvariantViolationSurfacesWithContext(t *testing.T) {
	in := workload.BadChain(3).MustInit()
	a := core.NewOneStepPR(in)
	boom := errors.New("boom")
	failAfterTwo := automaton.Invariant{
		Name: "fail-late",
		Check: func(x automaton.Automaton) error {
			if x.Steps() >= 2 {
				return boom
			}
			return nil
		},
	}
	_, err := sched.Run(a, sched.NewRandomSingle(1), sched.Options{
		Invariants: []automaton.Invariant{failAfterTwo},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
}

func TestInitialStateInvariantChecked(t *testing.T) {
	in := workload.BadChain(3).MustInit()
	a := core.NewOneStepPR(in)
	boom := errors.New("boom")
	failAlways := automaton.Invariant{
		Name:  "fail-now",
		Check: func(automaton.Automaton) error { return boom },
	}
	_, err := sched.Run(a, sched.NewRandomSingle(1), sched.Options{
		Invariants: []automaton.Invariant{failAlways},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("initial-state check missing: %v", err)
	}
}

func TestRoundRobinIsFair(t *testing.T) {
	// On the bad chain the round-robin scheduler must eventually schedule
	// every non-destination node at least once.
	in := workload.BadChain(6).MustInit()
	a := core.NewOneStepPR(in)
	res, err := sched.Run(a, sched.NewRoundRobin(), sched.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	stepped := make(map[graph.NodeID]bool)
	for _, r := range res.Execution.Records {
		for _, u := range r.Action.Participants() {
			stepped[u] = true
		}
	}
	for u := 1; u <= 6; u++ {
		if !stepped[graph.NodeID(u)] {
			t.Errorf("node %d never scheduled", u)
		}
	}
}

func TestRandomSubsetProducesSetActions(t *testing.T) {
	in := workload.Star(8).MustInit()
	a := core.NewPRAutomaton(in)
	res, err := sched.Run(a, sched.NewRandomSubset(3), sched.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced {
		t.Fatal("did not quiesce")
	}
	// With 7 leaf sinks, at least one picked action should batch >1 node.
	sawBatch := false
	for _, r := range res.Execution.Records {
		if len(r.Action.Participants()) > 1 {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Log("no batched action (possible but unlikely); not failing")
	}
}

func TestAdversarialMaxPicksHeaviestAction(t *testing.T) {
	// Star with destination at the hub: every leaf reversal costs exactly 1,
	// so any choice is maximal — sanity only. Then on the bad chain after
	// one step, FR offers a 1-edge sink (endpoint) and a 2-edge sink
	// (interior): AdversarialMax must pick the interior node.
	in := workload.BadChain(4).MustInit()
	fr := core.NewFR(in)
	// Step node 4 manually: node 3 (2 edges) and nothing else become sinks.
	if err := fr.Step(automaton.ReverseNode{U: 4}); err != nil {
		t.Fatal(err)
	}
	if err := fr.Step(automaton.ReverseNode{U: 3}); err != nil {
		t.Fatal(err)
	}
	// Sinks now: 2 (edges {1,2},{2,3} → 2 reversals) and 4 (edge {3,4} → 1).
	s := sched.AdversarialMax{}
	act := s.Pick(fr, fr.Enabled())
	if got := act.Participants()[0]; got != 2 {
		t.Errorf("AdversarialMax picked %d, want 2 (the 2-edge sink)", got)
	}
	// Applying the pick must reverse 2 edges.
	before := fr.TotalReversals()
	if err := fr.Step(act); err != nil {
		t.Fatal(err)
	}
	if fr.TotalReversals()-before != 2 {
		t.Errorf("picked action reversed %d edges, want 2", fr.TotalReversals()-before)
	}
}

func TestDefaultMaxStepsScalesWithGraph(t *testing.T) {
	// The default budget must comfortably cover the Θ(n²) worst case.
	in := workload.BadChain(40).MustInit()
	a := core.NewOneStepPR(in)
	res, err := sched.Run(a, sched.LIFO{}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiesced {
		t.Error("worst case must quiesce within the default budget")
	}
}
