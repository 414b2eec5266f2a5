// Package sched provides schedulers (adversaries) and an execution engine
// for the link-reversal automata.
//
// A link-reversal algorithm must be correct under *every* scheduler: the
// acyclicity invariants are properties of all reachable states. The engine
// therefore takes the scheduler as a parameter and can check invariants
// after every step, which is how the paper's proofs are validated
// experimentally.
package sched

import (
	"errors"
	"fmt"
	"math/rand"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// Errors returned by the engine.
var (
	// ErrStepLimit is returned when the automaton did not quiesce within the
	// configured maximum number of steps.
	ErrStepLimit = errors.New("sched: step limit exceeded before quiescence")
	// ErrSchedulerStall is returned when the scheduler returns no action
	// while actions are still enabled.
	ErrSchedulerStall = errors.New("sched: scheduler returned no action while enabled actions remain")
)

// Scheduler picks the next action from the enabled set. Implementations may
// combine single-node actions into set actions when the automaton supports
// them (PR and FR).
type Scheduler interface {
	// Name identifies the scheduler in traces and experiment tables.
	Name() string
	// Pick returns the next action to apply, or nil to indicate the
	// scheduler has no choice to make (only legal when enabled is empty).
	Pick(a automaton.Automaton, enabled []automaton.Action) automaton.Action
}

// Greedy schedules all currently enabled sinks as one set action where the
// automaton supports sets (PR, FR), and falls back to the first single
// action otherwise. It models the maximally parallel round-based execution
// used in the worst-case analyses.
type Greedy struct{}

var _ Scheduler = Greedy{}

// Name implements Scheduler.
func (Greedy) Name() string { return "greedy" }

// Pick implements Scheduler.
func (Greedy) Pick(a automaton.Automaton, enabled []automaton.Action) automaton.Action {
	if len(enabled) == 0 {
		return nil
	}
	if _, ok := enabled[0].(automaton.ReverseSet); ok {
		all := make([]graph.NodeID, 0, len(enabled))
		for _, act := range enabled {
			all = append(all, act.Participants()...)
		}
		return automaton.NewReverseSet(all)
	}
	return enabled[0]
}

// RandomSingle picks one enabled action uniformly at random from a seeded
// source, giving reproducible randomized executions.
type RandomSingle struct {
	rng *rand.Rand
}

var _ Scheduler = (*RandomSingle)(nil)

// NewRandomSingle returns a RandomSingle scheduler seeded with seed.
func NewRandomSingle(seed int64) *RandomSingle {
	return &RandomSingle{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Scheduler.
func (*RandomSingle) Name() string { return "random-single" }

// Pick implements Scheduler.
func (s *RandomSingle) Pick(_ automaton.Automaton, enabled []automaton.Action) automaton.Action {
	if len(enabled) == 0 {
		return nil
	}
	return enabled[s.rng.Intn(len(enabled))]
}

// RandomSubset picks a uniformly random non-empty subset of the enabled
// sinks as one set action (for PR/FR); for single-action automata it
// degenerates to RandomSingle. It exercises the full reverse(S) action
// space of Algorithm 1.
type RandomSubset struct {
	rng *rand.Rand
}

var _ Scheduler = (*RandomSubset)(nil)

// NewRandomSubset returns a RandomSubset scheduler seeded with seed.
func NewRandomSubset(seed int64) *RandomSubset {
	return &RandomSubset{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Scheduler.
func (*RandomSubset) Name() string { return "random-subset" }

// Pick implements Scheduler.
func (s *RandomSubset) Pick(_ automaton.Automaton, enabled []automaton.Action) automaton.Action {
	if len(enabled) == 0 {
		return nil
	}
	if _, ok := enabled[0].(automaton.ReverseSet); !ok {
		return enabled[s.rng.Intn(len(enabled))]
	}
	var subset []graph.NodeID
	for _, act := range enabled {
		if s.rng.Intn(2) == 0 {
			subset = append(subset, act.Participants()...)
		}
	}
	if len(subset) == 0 {
		// Guarantee progress: include one action.
		subset = enabled[s.rng.Intn(len(enabled))].Participants()
	}
	return automaton.NewReverseSet(subset)
}

// RoundRobin cycles deterministically through node IDs, always scheduling
// the next enabled sink at or after the cursor. It models a fair sequential
// adversary.
type RoundRobin struct {
	cursor int
}

var _ Scheduler = (*RoundRobin)(nil)

// NewRoundRobin returns a RoundRobin scheduler starting at node 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Scheduler.
func (s *RoundRobin) Pick(a automaton.Automaton, enabled []automaton.Action) automaton.Action {
	if len(enabled) == 0 {
		return nil
	}
	n := a.Graph().NumNodes()
	enabledBy := make(map[graph.NodeID]automaton.Action, len(enabled))
	for _, act := range enabled {
		ps := act.Participants()
		if len(ps) == 1 {
			enabledBy[ps[0]] = act
		}
	}
	for i := 0; i < n; i++ {
		id := graph.NodeID((s.cursor + i) % n)
		if act, ok := enabledBy[id]; ok {
			s.cursor = (int(id) + 1) % n
			return act
		}
	}
	return enabled[0]
}

// LIFO always schedules the most recently enabled sink (approximated by the
// highest node ID). Deterministic and maximally "unfair", it tends to drive
// long reversal chains and is used as the adversarial baseline.
type LIFO struct{}

var _ Scheduler = LIFO{}

// Name implements Scheduler.
func (LIFO) Name() string { return "lifo" }

// Pick implements Scheduler.
func (LIFO) Pick(_ automaton.Automaton, enabled []automaton.Action) automaton.Action {
	if len(enabled) == 0 {
		return nil
	}
	return enabled[len(enabled)-1]
}

// AdversarialMax greedily maximizes immediate work: it clones the automaton
// for every enabled action, applies it, and schedules the action that
// reverses the most edges (ties broken by lowest node ID). It is the
// strongest simple adversary for work experiments; acyclicity must hold
// under it like under every other scheduler.
type AdversarialMax struct{}

var _ Scheduler = AdversarialMax{}

// Name implements Scheduler.
func (AdversarialMax) Name() string { return "adversarial-max" }

// Pick implements Scheduler.
func (AdversarialMax) Pick(a automaton.Automaton, enabled []automaton.Action) automaton.Action {
	if len(enabled) == 0 {
		return nil
	}
	cloner, ok := a.(automaton.Cloner)
	if !ok {
		return enabled[0]
	}
	baseline := a.TotalReversals()
	best := enabled[0]
	bestWork := -1
	for _, act := range enabled {
		clone := cloner.CloneAutomaton()
		if err := clone.Step(act); err != nil {
			continue
		}
		if w := clone.TotalReversals() - baseline; w > bestWork {
			bestWork = w
			best = act
		}
	}
	return best
}

// Named is one entry of Table: a scheduler's name and its constructor.
// Schedulers that draw no random numbers ignore the seed.
type Named struct {
	Name string
	New  func(seed int64) Scheduler
}

// Table lists every scheduler, in the order of the public Scheduler
// values: greedy, random-single, random-subset, round-robin, lifo and
// adversarial-max. Each entry's Name is what its scheduler's Name returns.
var Table = []Named{
	{"greedy", func(int64) Scheduler { return Greedy{} }},
	{"random-single", func(seed int64) Scheduler { return NewRandomSingle(seed) }},
	{"random-subset", func(seed int64) Scheduler { return NewRandomSubset(seed) }},
	{"round-robin", func(int64) Scheduler { return NewRoundRobin() }},
	{"lifo", func(int64) Scheduler { return LIFO{} }},
	{"adversarial-max", func(int64) Scheduler { return AdversarialMax{} }},
}

// Result summarizes a completed run.
type Result struct {
	Scheduler      string
	Algorithm      string
	Steps          int
	TotalReversals int
	Quiesced       bool
	Execution      *automaton.Execution
}

// Options configures a run.
type Options struct {
	// MaxSteps bounds the number of actions; 0 means 100·n² + 100 for an
	// n-node graph, comfortably above the Θ(n²) worst case.
	MaxSteps int
	// Invariants, if non-empty, are checked after every step (and once in
	// the initial state).
	Invariants []automaton.Invariant
	// Record enables per-step execution recording.
	Record bool
}

// Run drives a until quiescence under s. It returns the run summary and the
// first invariant violation or scheduler/step-limit error encountered.
func Run(a automaton.Automaton, s Scheduler, opts Options) (*Result, error) {
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		n := a.Graph().NumNodes()
		maxSteps = 100*n*n + 100
	}
	res := &Result{
		Scheduler: s.Name(),
		Algorithm: a.Name(),
	}
	if opts.Record {
		res.Execution = &automaton.Execution{AutomatonName: a.Name()}
	}
	if err := automaton.CheckAll(a, opts.Invariants); err != nil {
		return res, fmt.Errorf("initial state: %w", err)
	}
	for steps := 0; ; steps++ {
		enabled := a.Enabled()
		if len(enabled) == 0 {
			res.Quiesced = true
			break
		}
		if steps >= maxSteps {
			return res, fmt.Errorf("%w: %d steps", ErrStepLimit, maxSteps)
		}
		act := s.Pick(a, enabled)
		if act == nil {
			return res, ErrSchedulerStall
		}
		before := a.TotalReversals()
		if err := a.Step(act); err != nil {
			return res, fmt.Errorf("step %d (%s): %w", steps, act, err)
		}
		res.Steps++
		delta := a.TotalReversals() - before
		res.TotalReversals += delta
		if opts.Record {
			res.Execution.Append(act, delta)
		}
		if err := automaton.CheckAll(a, opts.Invariants); err != nil {
			return res, fmt.Errorf("after step %d (%s): %w", steps, act, err)
		}
	}
	return res, nil
}
