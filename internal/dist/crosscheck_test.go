package dist

import (
	"context"
	"fmt"
	"testing"
	"time"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// sequentialTwin returns the sequential automaton and invariant suite that
// a distributed variant must agree with.
func sequentialTwin(alg Algorithm, in *core.Init) (automaton.Automaton, []automaton.Invariant, error) {
	v, err := alg.Twin()
	if err != nil {
		return nil, nil, err
	}
	return v.New(in), v.Invariants, nil
}

// sequentialFinal runs alg's sequential twin on in until no sink is
// enabled, always stepping the first enabled action, and returns its final
// orientation and reversal count: a reference that shares no code with the
// dist runtime. Link reversal is confluent, so any schedule reaches the
// same final orientation with the same work.
func sequentialFinal(t testing.TB, alg Algorithm, in *core.Init) (*graph.Orientation, int) {
	t.Helper()
	twin, _, err := sequentialTwin(alg, in)
	if err != nil {
		t.Fatal(err)
	}
	for !twin.Quiescent() {
		if err := twin.Step(twin.Enabled()[0]); err != nil {
			t.Fatal(err)
		}
	}
	return twin.Orientation(), twin.TotalReversals()
}

// TestDistributedMatchesSequential replays each distributed run's recorded
// step linearization on the matching sequential automaton over a seed
// sweep, for every engine configuration. Every step must satisfy the
// sequential precondition, the paper's invariant suite must hold in every
// traversed state, and the sequential replay must land on exactly the
// distributed final orientation — the machine-checked form of "the
// asynchronous execution is one of the automaton's executions".
func TestDistributedMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		for _, topo := range []*workload.Topology{
			workload.RandomConnected(14, 0.3, seed),
			workload.LayeredDAG(4, 4, 0.5, seed),
		} {
			for _, alg := range allAlgorithms() {
				for _, opts := range testEngines(t) {
					topo, alg, seed, opts := topo, alg, seed, opts
					t.Run(fmt.Sprintf("%s/%v/seed%d/%v", topo.Name, alg, seed, engineName(opts)), func(t *testing.T) {
						t.Parallel()
						in, err := topo.Init()
						if err != nil {
							t.Fatal(err)
						}
						ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
						defer cancel()
						res, err := RunWith(ctx, in, alg, opts)
						if err != nil {
							t.Fatal(err)
						}
						twin, invs, err := sequentialTwin(alg, in)
						if err != nil {
							t.Fatal(err)
						}
						if err := automaton.CheckAll(twin, invs); err != nil {
							t.Fatalf("initial state: %v", err)
						}
						for i, u := range res.Trace {
							if err := twin.Step(automaton.ReverseNode{U: u}); err != nil {
								t.Fatalf("replay step %d (node %d): %v", i, u, err)
							}
							if err := automaton.CheckAll(twin, invs); err != nil {
								t.Fatalf("after step %d (node %d): %v", i, u, err)
							}
						}
						if !twin.Quiescent() {
							t.Error("sequential replay not quiescent after full trace")
						}
						if !twin.Orientation().Equal(res.Final) {
							t.Error("sequential replay diverged from the distributed final orientation")
						}
						if twin.TotalReversals() != res.Stats.TotalReversals {
							t.Errorf("sequential reversals %d != distributed %d",
								twin.TotalReversals(), res.Stats.TotalReversals)
						}
					})
				}
			}
		}
	}
}
