package mc_test

import (
	"errors"
	"fmt"
	"testing"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/mc"
	"linkreversal/internal/workload"
)

// TestSleepReductionMatchesFullSearch is the DPOR-vs-full equivalence pin:
// on every small instance and every variant, sleep-set reduction must
// discover exactly the same state census as the unreduced search — States
// and Quiescent identical — while exploring no more transitions. This is
// the executable form of the sleep-set soundness theorem (sleep sets prune
// transitions, never states) on which the reduced invariant census relies.
func TestSleepReductionMatchesFullSearch(t *testing.T) {
	for _, topo := range smallTopologies() {
		in := topo.MustInit()
		for _, v := range core.Variants {
			t.Run(topo.Name+"/"+v.Name, func(t *testing.T) {
				full, err := mc.Explore(v.New(in), mc.Options{Invariants: v.Invariants})
				if err != nil {
					t.Fatalf("full: %v", err)
				}
				sleep, err := mc.Explore(v.New(in), mc.Options{Invariants: v.Invariants, Reduction: mc.ReduceSleep})
				if err != nil {
					t.Fatalf("sleep: %v", err)
				}
				if sleep.States != full.States || sleep.Quiescent != full.Quiescent {
					t.Errorf("sleep census (states %d, quiescent %d) != full (states %d, quiescent %d)",
						sleep.States, sleep.Quiescent, full.States, full.Quiescent)
				}
				if sleep.Transitions > full.Transitions {
					t.Errorf("sleep transitions %d > full %d", sleep.Transitions, full.Transitions)
				}
				t.Logf("%s on %s: %d states; transitions full %d → sleep %d",
					v.Name, topo.Name, full.States, full.Transitions, sleep.Transitions)
			})
		}
	}
}

// TestSleepReductionPrunesTransitions: where concurrency exists (the star
// has n-1 simultaneously enabled leaves), sleep sets must prune strictly —
// a vacuously-equal reduction would mean the sleep bookkeeping is dead.
func TestSleepReductionPrunesTransitions(t *testing.T) {
	in := workload.Star(6).MustInit()
	full, err := mc.Explore(core.NewFR(in), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sleep, err := mc.Explore(core.NewFR(in), mc.Options{Reduction: mc.ReduceSleep})
	if err != nil {
		t.Fatal(err)
	}
	if sleep.Transitions >= full.Transitions {
		t.Errorf("sleep transitions %d >= full %d; expected strict pruning on the star", sleep.Transitions, full.Transitions)
	}
	if sleep.States != full.States {
		t.Errorf("states diverged: sleep %d, full %d", sleep.States, full.States)
	}
}

// TestAmpleReductionPreservesQuiescence: the singleton-persistent-set mode
// must reach the same quiescent census (these automata are strongly
// confluent, so there is exactly one) with far fewer states.
func TestAmpleReductionPreservesQuiescence(t *testing.T) {
	for _, topo := range smallTopologies() {
		in := topo.MustInit()
		for _, v := range core.Variants {
			t.Run(topo.Name+"/"+v.Name, func(t *testing.T) {
				full, err := mc.Explore(v.New(in), mc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ample, err := mc.Explore(v.New(in), mc.Options{Reduction: mc.ReduceAmple})
				if err != nil {
					t.Fatal(err)
				}
				if ample.Quiescent != full.Quiescent {
					t.Errorf("ample quiescent %d != full %d", ample.Quiescent, full.Quiescent)
				}
				if ample.States > full.States {
					t.Errorf("ample states %d > full %d", ample.States, full.States)
				}
			})
		}
	}
}

// TestAmpleReductionExtendsReach is the state-budget acceptance pin: under
// one fixed MaxStates budget, the reduced search must fully explore a
// chain instance at least 2 nodes larger than the largest the unreduced
// search can finish. (In practice the gap is much bigger — the full FR
// lattice on a bad chain is exponential in n_b, the canonical execution
// quadratic.)
func TestAmpleReductionExtendsReach(t *testing.T) {
	const budget = 600
	explore := func(nb int, r mc.Reduction) error {
		in := workload.BadChain(nb).MustInit()
		_, err := mc.Explore(core.NewFR(in), mc.Options{MaxStates: budget, Reduction: r})
		return err
	}
	// Largest chain the full search finishes under the budget.
	fullMax := 0
	for nb := 2; nb <= 64; nb++ {
		if err := explore(nb, mc.ReduceNone); err != nil {
			if !errors.Is(err, mc.ErrStateLimit) {
				t.Fatalf("full nb=%d: %v", nb, err)
			}
			break
		}
		fullMax = nb
	}
	if fullMax == 0 || fullMax >= 64 {
		t.Fatalf("budget %d ill-calibrated: full search max nb = %d", budget, fullMax)
	}
	target := fullMax + 2
	if err := explore(target, mc.ReduceAmple); err != nil {
		t.Errorf("ample search failed on nb=%d under the same budget: %v", target, err)
	}
	t.Logf("MaxStates=%d: full search tops out at nb=%d, ample handles nb=%d", budget, fullMax, target)
}

// TestExploreStateLimitMidSearch: the limit must also fire under the
// reduced modes, carrying ErrStateLimit wrapped with the state count.
func TestExploreStateLimitMidSearch(t *testing.T) {
	for _, r := range []mc.Reduction{mc.ReduceNone, mc.ReduceSleep, mc.ReduceAmple} {
		t.Run(r.String(), func(t *testing.T) {
			in := workload.BadChain(12).MustInit()
			res, err := mc.Explore(core.NewFR(in), mc.Options{MaxStates: 5, Reduction: r})
			if !errors.Is(err, mc.ErrStateLimit) {
				t.Fatalf("error = %v, want ErrStateLimit", err)
			}
			if res == nil || res.States != 5 {
				t.Errorf("result at limit = %+v, want States == 5", res)
			}
		})
	}
}

// cloneless implements StateKeyer but not Cloner: enumeration must be
// rejected up front, not fail mid-expansion.
type cloneless struct{ automaton.Automaton }

func (c cloneless) StateKey() string { return "constant" }

func TestExploreRejectsNonCloner(t *testing.T) {
	in := workload.BadChain(3).MustInit()
	wrapped := cloneless{Automaton: core.NewFR(in)}
	res, err := mc.Explore(wrapped, mc.Options{})
	if !errors.Is(err, mc.ErrNotCheckable) {
		t.Errorf("error = %v, want ErrNotCheckable", err)
	}
	if res != nil {
		t.Errorf("result = %+v, want nil before any exploration", res)
	}
}

// TestReductionStrings pins the flag-facing names.
func TestReductionStrings(t *testing.T) {
	for want, r := range map[string]mc.Reduction{
		"none": mc.ReduceNone, "sleep": mc.ReduceSleep, "ample": mc.ReduceAmple,
	} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
	if got := mc.Reduction(9).String(); got != fmt.Sprintf("Reduction(%d)", 9) {
		t.Errorf("unknown reduction renders %q", got)
	}
}
