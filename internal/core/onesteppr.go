package core

import (
	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// OneStepPR is the intermediate automaton of Section 5.1 (Algorithm 3): the
// state and effect are identical to PR, but only a single node takes a step
// per action (reverse(u) instead of reverse(S)).
type OneStepPR struct {
	machine
	list lists
}

// NewOneStepPR creates a OneStepPR automaton in its initial state.
func NewOneStepPR(in *Init) *OneStepPR {
	return &OneStepPR{machine: newMachine("OneStepPR", in), list: newLists(in)}
}

// List returns the current contents of list[u] in ascending order.
func (p *OneStepPR) List(u graph.NodeID) []graph.NodeID { return p.list.members(u) }

// Step implements automaton.Automaton; only ReverseNode actions are valid.
func (p *OneStepPR) Step(a automaton.Action) error {
	u, err := p.checkNode(a)
	if err != nil {
		return err
	}
	p.reverseListed(p.list, u)
	p.steps++
	return nil
}

// CloneAutomaton implements automaton.Cloner.
func (p *OneStepPR) CloneAutomaton() automaton.Automaton { return p.Clone() }

// Clone returns a deep copy sharing the immutable Init.
func (p *OneStepPR) Clone() *OneStepPR {
	return &OneStepPR{machine: p.machine.clone(), list: p.list.clone()}
}
