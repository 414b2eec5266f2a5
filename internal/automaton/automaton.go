// Package automaton provides a small explicit-state I/O automaton framework
// in the style of Lynch's "Distributed Algorithms", the model used by
// Radeva & Lynch to state the PR, OneStepPR and NewPR algorithms.
//
// An Automaton exposes its current directed graph G', the set of currently
// enabled actions, and a Step method that checks the action's precondition
// and applies its effect. Executions are sequences of (state, action) pairs;
// invariants are predicates checked on every reachable state that an engine
// visits.
package automaton

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"linkreversal/internal/graph"
)

// Errors shared by all automata implementations.
var (
	// ErrPreconditionFailed is returned by Step when the action's
	// precondition does not hold in the current state.
	ErrPreconditionFailed = errors.New("automaton: precondition failed")
	// ErrInvalidAction is returned by Step for malformed actions (unknown
	// node, empty set, destination included, wrong action type).
	ErrInvalidAction = errors.New("automaton: invalid action")
)

// Action is a transition label. The paper's automata have a single action
// family, reverse, parameterized by either one node (reverse(u)) or a set of
// nodes (reverse(S)).
type Action interface {
	// Participants returns the nodes taking the step, in ascending order.
	Participants() []graph.NodeID
	// String renders the action for traces, e.g. "reverse({1,4})".
	String() string
}

// ReverseNode is the single-node action reverse(u) of OneStepPR, NewPR and
// single-step FR.
type ReverseNode struct {
	U graph.NodeID
}

var _ Action = ReverseNode{}

// Participants implements Action.
func (a ReverseNode) Participants() []graph.NodeID { return []graph.NodeID{a.U} }

// String implements Action.
func (a ReverseNode) String() string { return fmt.Sprintf("reverse(%d)", a.U) }

// ReverseSet is the set action reverse(S) of the original PR automaton
// (Algorithm 1): all nodes of S, which must be sinks, step together.
type ReverseSet struct {
	S []graph.NodeID
}

var _ Action = ReverseSet{}

// NewReverseSet returns a ReverseSet over a defensive, sorted, deduplicated
// copy of s.
func NewReverseSet(s []graph.NodeID) ReverseSet {
	cp := make([]graph.NodeID, len(s))
	copy(cp, s)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:0]
	var prev graph.NodeID = -1
	for _, u := range cp {
		if u != prev {
			out = append(out, u)
			prev = u
		}
	}
	return ReverseSet{S: out}
}

// Participants implements Action.
func (a ReverseSet) Participants() []graph.NodeID { return a.S }

// String implements Action.
func (a ReverseSet) String() string {
	parts := make([]string, len(a.S))
	for i, u := range a.S {
		parts[i] = fmt.Sprintf("%d", u)
	}
	return "reverse({" + strings.Join(parts, ",") + "})"
}

// Automaton is an explicit-state automaton over an edge orientation. All the
// link-reversal variants in internal/core implement it.
type Automaton interface {
	// Name identifies the algorithm variant, e.g. "PR" or "NewPR".
	Name() string
	// Graph returns the fixed undirected graph G.
	Graph() *graph.Graph
	// Orientation returns the current directed graph G'. Callers must treat
	// it as read-only; mutate only through Step.
	Orientation() *graph.Orientation
	// Destination returns the destination node D, which never takes steps.
	Destination() graph.NodeID
	// Enabled returns the currently enabled actions. For set-action automata
	// this is the set of single-sink actions; schedulers may combine them
	// into ReverseSet actions where the automaton supports it.
	Enabled() []Action
	// Step checks the precondition of a and applies its effect. It returns
	// ErrPreconditionFailed or ErrInvalidAction on bad actions, leaving the
	// state unchanged.
	Step(a Action) error
	// Steps returns the number of actions applied so far.
	Steps() int
	// TotalReversals returns the number of edge reversals performed so far.
	TotalReversals() int
	// Quiescent reports whether no action is enabled.
	Quiescent() bool
}

// Cloner is implemented by automata that support deep copies, used by
// simulation-relation checkers and adversarial schedulers that explore
// branches.
type Cloner interface {
	CloneAutomaton() Automaton
}

// Invariant is a predicate over reachable states. Check returns nil if the
// invariant holds and a descriptive error otherwise.
type Invariant struct {
	Name  string
	Check func(Automaton) error
}

// CheckAll evaluates every invariant against a and returns the first
// violation, wrapped with the invariant name, or nil.
func CheckAll(a Automaton, invs []Invariant) error {
	for _, inv := range invs {
		if err := inv.Check(a); err != nil {
			return fmt.Errorf("invariant %s: %w", inv.Name, err)
		}
	}
	return nil
}

// TransitionRecord is one step of an execution: the action taken and the
// number of edges it reversed.
type TransitionRecord struct {
	Action   Action
	Reversed int
}

// Execution accumulates the history of an automaton run.
type Execution struct {
	AutomatonName string
	Records       []TransitionRecord
}

// Append records one transition.
func (e *Execution) Append(a Action, reversed int) {
	e.Records = append(e.Records, TransitionRecord{Action: a, Reversed: reversed})
}

// Len returns the number of recorded steps.
func (e *Execution) Len() int { return len(e.Records) }

// TotalReversals sums the per-step reversal counts. This is the work measure
// used for the Θ(n_b²) bound and the FR-vs-PR comparisons.
func (e *Execution) TotalReversals() int {
	total := 0
	for _, r := range e.Records {
		total += r.Reversed
	}
	return total
}

// String renders the execution compactly for diagnostics.
func (e *Execution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s execution (%d steps, %d reversals):", e.AutomatonName, e.Len(), e.TotalReversals())
	for i, r := range e.Records {
		if i >= 20 {
			fmt.Fprintf(&b, " … (%d more)", e.Len()-i)
			break
		}
		fmt.Fprintf(&b, " %s", r.Action)
	}
	return b.String()
}
