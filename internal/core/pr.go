package core

import (
	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// PR is the original Partial Reversal automaton (Algorithm 1 of the paper).
//
// State: dir[u,v] for every edge (held in the Orientation) and, for every
// node u, list[u] — the set of neighbours that reversed their edge toward u
// since u's last step.
//
// The single action family is reverse(S) for a non-empty set S of sinks not
// containing the destination. Each u ∈ S reverses the edges to nbrs(u) \
// list[u], unless list[u] = nbrs(u) in which case it reverses all incident
// edges; every neighbour v whose edge was reversed adds u to list[v]; then
// list[u] is emptied.
type PR struct {
	machine
	list lists
}

// NewPRAutomaton creates a PR automaton in its initial state (all lists
// empty, orientation = G'_init).
func NewPRAutomaton(in *Init) *PR {
	return &PR{machine: newMachine("PR", in), list: newLists(in)}
}

// List returns the current contents of list[u] in ascending order.
func (p *PR) List(u graph.NodeID) []graph.NodeID { return p.list.members(u) }

// Enabled implements automaton.Automaton. It returns one singleton
// reverse(S) action per enabled sink; any union of enabled singletons is
// also enabled (no two sinks are ever adjacent).
func (p *PR) Enabled() []automaton.Action { return p.enabledSets() }

// Step implements automaton.Automaton. It accepts ReverseSet actions and,
// for convenience, ReverseNode actions (treated as singleton sets).
func (p *PR) Step(a automaton.Action) error {
	s, err := p.checkSet(a)
	if err != nil {
		return err
	}
	// Effect. Sinks are pairwise non-adjacent, so applying the per-node
	// effects sequentially equals the simultaneous effect.
	for _, u := range s {
		p.reverseListed(p.list, u)
	}
	p.steps++
	return nil
}

// CloneAutomaton implements automaton.Cloner.
func (p *PR) CloneAutomaton() automaton.Automaton { return p.Clone() }

// Clone returns a deep copy sharing the immutable Init.
func (p *PR) Clone() *PR { return &PR{machine: p.machine.clone(), list: p.list.clone()} }
