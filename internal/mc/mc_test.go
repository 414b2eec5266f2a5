package mc_test

import (
	"errors"
	"testing"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/mc"
	"linkreversal/internal/workload"
)

// exhaustive topologies: small enough to enumerate fully.
func smallTopologies() []*workload.Topology {
	return []*workload.Topology{
		workload.BadChain(5),
		workload.AlternatingChain(5),
		workload.Star(5),
		workload.Ladder(3),
		workload.Ring(5, 2),
		workload.RandomConnected(6, 0.4, 3),
	}
}

// TestExhaustiveAcyclicityAllVariants is the strongest executable form of
// Theorems 4.3/5.5: on each small instance, EVERY reachable state of every
// variant is enumerated and checked acyclic (plus the full per-variant
// invariant suite).
func TestExhaustiveAcyclicityAllVariants(t *testing.T) {
	for _, topo := range smallTopologies() {
		in := topo.MustInit()
		for _, v := range core.Variants {
			t.Run(topo.Name+"/"+v.Name, func(t *testing.T) {
				res, err := mc.Explore(v.New(in), mc.Options{Invariants: v.Invariants})
				if err != nil {
					t.Fatalf("explore: %v", err)
				}
				if res.States == 0 || res.Quiescent == 0 {
					t.Errorf("suspicious result %+v", res)
				}
				t.Logf("%s on %s: %d states, %d transitions, depth %d, %d quiescent",
					v.Name, topo.Name, res.States, res.Transitions, res.MaxDepth, res.Quiescent)
			})
		}
	}
}

// TestEveryQuiescentStateIsDestinationOriented: exhaustively, quiescence
// implies destination orientation (no stuck intermediate states exist).
func TestEveryQuiescentStateIsDestinationOriented(t *testing.T) {
	oriented := automaton.Invariant{
		Name: "quiescent-implies-oriented",
		Check: func(a automaton.Automaton) error {
			if !a.Quiescent() {
				return nil
			}
			if !graph.IsDestinationOriented(a.Orientation(), a.Destination()) {
				return errors.New("quiescent but not destination-oriented")
			}
			return nil
		},
	}
	for _, topo := range smallTopologies() {
		in := topo.MustInit()
		if _, err := mc.Explore(core.NewOneStepPR(in), mc.Options{
			Invariants: []automaton.Invariant{oriented},
		}); err != nil {
			t.Errorf("%s: %v", topo.Name, err)
		}
	}
}

// TestFRStateSpaceExceedsPROnBadChain: although FR carries no list state,
// its quadratic re-reversal work inflates its reachable space — on the bad
// chain FR visits strictly more distinct states than PR, whose single
// linear sweep touches each orientation once. (Exhaustive counts: FR 32
// states vs PR 6 at n_b = 5.)
func TestFRStateSpaceExceedsPROnBadChain(t *testing.T) {
	in := workload.BadChain(5).MustInit()
	frRes, err := mc.Explore(core.NewFR(in), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prRes, err := mc.Explore(core.NewOneStepPR(in), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if frRes.States <= prRes.States {
		t.Errorf("FR states %d <= PR states %d; expected FR's ping-pong to dominate",
			frRes.States, prRes.States)
	}
	if prRes.States != 6 {
		t.Errorf("PR states = %d, want 6 (linear sweep)", prRes.States)
	}
}

// TestUniqueQuiescentOrientationOnChain: on a chain, the destination-
// oriented DAG is unique, so all quiescent states share one orientation —
// for FR, whose state IS the orientation, exactly one quiescent state.
func TestUniqueQuiescentOrientationOnChain(t *testing.T) {
	in := workload.BadChain(5).MustInit()
	res, err := mc.Explore(core.NewFR(in), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quiescent != 1 {
		t.Errorf("FR quiescent states on chain = %d, want 1", res.Quiescent)
	}
}

func TestExploreStateLimit(t *testing.T) {
	in := workload.BadChain(8).MustInit()
	_, err := mc.Explore(core.NewOneStepPR(in), mc.Options{MaxStates: 3})
	if !errors.Is(err, mc.ErrStateLimit) {
		t.Errorf("error = %v, want ErrStateLimit", err)
	}
}

func TestViolationSurfacesStateAndDepth(t *testing.T) {
	in := workload.BadChain(4).MustInit()
	boom := errors.New("boom")
	failDeep := automaton.Invariant{
		Name: "fail-at-depth",
		Check: func(a automaton.Automaton) error {
			if a.Steps() >= 2 {
				return boom
			}
			return nil
		},
	}
	_, err := mc.Explore(core.NewOneStepPR(in), mc.Options{
		Invariants: []automaton.Invariant{failDeep},
	})
	var v *mc.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error = %v, want *Violation", err)
	}
	if v.Depth < 2 || !errors.Is(v.Err, boom) {
		t.Errorf("violation = %+v", v)
	}
}

type noKeyAutomaton struct{ automaton.Automaton }

func TestExploreRejectsUncheckable(t *testing.T) {
	in := workload.BadChain(3).MustInit()
	wrapped := noKeyAutomaton{Automaton: core.NewFR(in)}
	if _, err := mc.Explore(wrapped, mc.Options{}); !errors.Is(err, mc.ErrNotCheckable) {
		t.Errorf("error = %v, want ErrNotCheckable", err)
	}
}

// TestStateKeysDistinguishStates sanity-checks the canonical encodings:
// stepping must change the key, and cloned automata share keys.
func TestStateKeysDistinguishStates(t *testing.T) {
	in := workload.BadChain(4).MustInit()
	keyers := []interface {
		automaton.Automaton
		automaton.Cloner
		core.StateKeyer
	}{
		core.NewPRAutomaton(in), core.NewOneStepPR(in), core.NewNewPR(in),
		core.NewFR(in), core.NewGBPair(in), core.NewGBFull(in),
	}
	for _, k := range keyers {
		t.Run(k.Name(), func(t *testing.T) {
			clone, ok := k.CloneAutomaton().(core.StateKeyer)
			if !ok {
				t.Fatal("clone lost StateKeyer")
			}
			if clone.StateKey() != k.StateKey() {
				t.Error("clone has different key")
			}
			before := k.StateKey()
			if err := k.Step(k.Enabled()[0]); err != nil {
				t.Fatal(err)
			}
			if k.StateKey() == before {
				t.Error("step did not change the key")
			}
		})
	}
}
