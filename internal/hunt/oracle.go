package hunt

import (
	"fmt"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/dist"
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
	"linkreversal/internal/trace"
)

// Oracle encodes the paper's bounds as checks over a finished run. Every
// hunted execution passes through Check; a non-empty verdict means either
// a genuine theorem violation (an implementation bug worth a reproducer)
// or — in the seeded-mutant self-tests — a deliberately tightened constant
// proving the harness can see breaches at all.
//
// The work bounds follow the Θ(n_b²) analysis on connected instances: with
// n nodes of which n_b are bad (no initial path to the destination), no
// node steps more than n_b times (+1 absorbs NewPR's dummy parity step),
// and total steps and total edge reversals stay within n_b·n (+n slack).
// WorkFactor scales all three, so a test can set it below 1 to force a
// breach on a healthy run. Work bounds are skipped on disconnected
// instances, where n_b counts nodes the protocol cannot repair.
type Oracle struct {
	// WorkFactor is the constant c of the work bounds; 0 means 1. Values
	// below 1 tighten the bounds past the theorems — the seeded-mutant
	// self-test's lever.
	WorkFactor float64
	// Stride is the replay-check cadence: the sequential-twin invariant
	// suite runs every Stride replayed steps (and always at the end);
	// 0 picks ⌈steps/64⌉, negative checks only the final state. Smaller
	// strides catch transient invariant violations at replay cost.
	Stride int
}

// factor returns the effective WorkFactor.
func (o Oracle) factor() float64 {
	if o.WorkFactor == 0 {
		return 1
	}
	return o.WorkFactor
}

// Breach is one oracle violation. Step is the trace index at which the
// violation was detected, or -1 when it concerns the run as a whole.
type Breach struct {
	// Oracle names the violated check: termination, work-per-node,
	// work-total, steps-total, retransmit-budget, replay, or
	// invariant-<name>.
	Oracle string `json:"oracle"`
	// Detail is the human-readable violation statement.
	Detail string `json:"detail"`
	// Step is the 0-based trace index of the violation; -1 for whole-run
	// checks.
	Step int `json:"step"`
}

// String implements fmt.Stringer.
func (b Breach) String() string {
	if b.Step >= 0 {
		return fmt.Sprintf("%s@%d: %s", b.Oracle, b.Step, b.Detail)
	}
	return fmt.Sprintf("%s: %s", b.Oracle, b.Detail)
}

// Check verifies a finished run against every applicable bound and
// returns the breaches with the run's work profile. The run should have
// its trace recorded — the hunter always records it: the per-node step
// bound counts steps from the trace, and the sequential replay that checks
// legality and invariants also yields the profile. Without a trace both
// are skipped and the profile is empty. After an invariant breach the
// replay goes on without checks to complete the profile; a trace that is
// not a legal execution yields the profile of its legal prefix.
func (o Oracle) Check(in *core.Init, alg dist.Algorithm, adv *faults.Adversary, res *dist.Result) ([]Breach, *trace.WorkProfile) {
	var breaches []Breach
	n := in.Graph().NumNodes()
	c := o.factor()

	// Termination: the final orientation must be acyclic and
	// destination-oriented — Theorems 4.3/5.5 plus the routing goal itself.
	if acyclic, oriented := graph.DestinationDAG(res.Final, in.Destination()); !acyclic {
		breaches = append(breaches, Breach{
			Oracle: "termination",
			Detail: fmt.Sprintf("final orientation has a cycle through %v", graph.FindCycle(res.Final)),
			Step:   -1,
		})
	} else if !oriented {
		breaches = append(breaches, Breach{
			Oracle: "termination",
			Detail: fmt.Sprintf("final orientation is not oriented toward destination %d", in.Destination()),
			Step:   -1,
		})
	}

	// Work bounds, on connected instances only.
	nb := len(graph.BadNodes(in.InitialOrientation(), in.Destination()))
	if in.Graph().Connected() {
		if perNode := c * float64(nb+1); res.Trace != nil {
			steps := make([]int, n)
			for _, u := range res.Trace {
				steps[u]++
			}
			for u, s := range steps {
				if float64(s) > perNode {
					breaches = append(breaches, Breach{
						Oracle: "work-per-node",
						Detail: fmt.Sprintf("node %d took %d steps, bound is %.2f (c=%.2f, n_b=%d)", u, s, perNode, c, nb),
						Step:   -1,
					})
					break // One witness suffices; the rest is noise.
				}
			}
		}
		total := c*float64(nb)*float64(n) + float64(n)
		if float64(res.Stats.TotalReversals) > total {
			breaches = append(breaches, Breach{
				Oracle: "work-total",
				Detail: fmt.Sprintf("%d total reversals, bound is %.2f (c=%.2f, n_b=%d, n=%d)", res.Stats.TotalReversals, total, c, nb, n),
				Step:   -1,
			})
		}
		if float64(res.Stats.Steps) > total {
			breaches = append(breaches, Breach{
				Oracle: "steps-total",
				Detail: fmt.Sprintf("%d total steps, bound is %.2f (c=%.2f, n_b=%d, n=%d)", res.Stats.Steps, total, c, nb, n),
				Step:   -1,
			})
		}
	}

	// Fair-loss accounting: the adversary may force at most RetryBudget
	// retransmissions per payload, and payloads number Stats.Messages.
	if adv != nil {
		budget := adv.RetryBudget
		if budget == 0 {
			budget = faults.DefaultRetryBudget
		}
		if limit := budget * res.Stats.Messages; res.Stats.Retransmits > limit {
			breaches = append(breaches, Breach{
				Oracle: "retransmit-budget",
				Detail: fmt.Sprintf("%d retransmissions for %d payloads under budget %d", res.Stats.Retransmits, res.Stats.Messages, budget),
				Step:   -1,
			})
		}
	}

	// Replay legality and invariants: the distributed linearization must be
	// a legal sequential execution whose every sampled state satisfies the
	// paper's invariant suite.
	profile := new(trace.WorkProfile)
	if res.Trace != nil {
		breaches = append(breaches, o.replay(in, alg, res.Trace, profile)...)
	}
	return breaches, profile
}

// replay drives the trace through the sequential twin, attributing each
// step's reversals in profile, and checks the invariant suite every stride
// steps and at the end until one check fails.
func (o Oracle) replay(in *core.Init, alg dist.Algorithm, steps []graph.NodeID, profile *trace.WorkProfile) []Breach {
	v, err := alg.Twin()
	if err != nil {
		return []Breach{{Oracle: "replay", Detail: err.Error(), Step: -1}}
	}
	a := v.New(in)
	stride := o.Stride
	if stride == 0 {
		stride = (len(steps) + 63) / 64
	}
	var found []Breach
	check := func(i int) {
		if err := automaton.CheckAll(a, v.Invariants); err != nil {
			found = []Breach{{Oracle: "invariant", Detail: err.Error(), Step: i}}
		}
	}
	for i, u := range steps {
		if err := profile.Replay(a, u); err != nil {
			if found != nil {
				return found
			}
			return []Breach{{
				Oracle: "replay",
				Detail: fmt.Sprintf("trace is not a legal sequential execution: %v", err),
				Step:   i,
			}}
		}
		if found == nil && stride > 0 && (i+1)%stride == 0 {
			check(i)
		}
	}
	if found == nil {
		check(len(steps) - 1)
	}
	if found == nil && !a.Quiescent() {
		found = []Breach{{
			Oracle: "termination",
			Detail: "twin automaton is not quiescent after full trace replay",
			Step:   len(steps) - 1,
		}}
	}
	return found
}
