package core

import (
	"fmt"
	"slices"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// Parity of a node's step count, the derived state of the NewPR automaton.
type Parity int

const (
	// Even parity: the node reverses its initial in-neighbour set next.
	Even Parity = iota + 1
	// Odd parity: the node reverses its initial out-neighbour set next.
	Odd
)

// String implements fmt.Stringer.
func (p Parity) String() string {
	switch p {
	case Even:
		return "even"
	case Odd:
		return "odd"
	default:
		return fmt.Sprintf("Parity(%d)", int(p))
	}
}

// NewPR is the paper's new Partial Reversal automaton (Algorithm 2).
//
// State: dir[u,v] for every edge and a history variable count[u] — the
// number of steps u has taken. The derived variable parity[u] is the parity
// of count[u].
//
// A sink u performs reverse(u): if parity[u] is even it reverses the edges
// to its *initial* in-neighbours, otherwise to its *initial* out-neighbours,
// and increments count[u]. When the relevant set is empty (nodes that start
// as sinks or sources), the step reverses nothing — a "dummy" step that only
// flips the parity.
type NewPR struct {
	machine
	count []int
	dummy int
}

// NewNewPR creates a NewPR automaton in its initial state (all counts zero).
func NewNewPR(in *Init) *NewPR {
	return &NewPR{machine: newMachine("NewPR", in), count: make([]int, in.g.NumNodes())}
}

// Count returns count[u], the number of steps u has taken.
func (p *NewPR) Count(u graph.NodeID) int { return p.count[u] }

// Parity returns parity[u], the derived parity of count[u].
func (p *NewPR) Parity(u graph.NodeID) Parity {
	if p.count[u]%2 == 0 {
		return Even
	}
	return Odd
}

// DummySteps returns the number of steps that reversed no edges. These are
// the extra cost NewPR pays relative to OneStepPR (Section 4.1 discussion).
func (p *NewPR) DummySteps() int { return p.dummy }

// Step implements automaton.Automaton; only ReverseNode actions are valid.
func (p *NewPR) Step(a automaton.Action) error {
	u, err := p.checkNode(a)
	if err != nil {
		return err
	}
	var toReverse []graph.NodeID
	if p.Parity(u) == Even {
		toReverse = p.init.InNbrs(u)
	} else {
		toReverse = p.init.OutNbrs(u)
	}
	if len(toReverse) == 0 {
		p.dummy++
	}
	for _, v := range toReverse {
		// dir[u,v] := out; dir[v,u] := in.
		p.reverse(u, v)
	}
	p.count[u]++
	p.steps++
	return nil
}

// CloneAutomaton implements automaton.Cloner.
func (p *NewPR) CloneAutomaton() automaton.Automaton { return p.Clone() }

// Clone returns a deep copy sharing the immutable Init.
func (p *NewPR) Clone() *NewPR {
	return &NewPR{machine: p.machine.clone(), count: slices.Clone(p.count), dummy: p.dummy}
}
