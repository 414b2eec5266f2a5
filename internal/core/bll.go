package core

import (
	"fmt"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// BLL is the Binary Link Labels automaton (Welch & Walter), the
// generalization of Partial Reversal used by the earlier acyclicity proof
// that the paper replaces. Each node u holds one binary label per incident
// edge: marked or unmarked. When a sink u takes a step:
//
//   - if at least one incident edge is unmarked at u, it reverses exactly
//     the unmarked edges;
//   - otherwise (all edges marked at u) it reverses all incident edges;
//   - every neighbour v whose edge was reversed marks the edge at v;
//   - u clears all of its labels to unmarked.
//
// PR is the special case in which every label starts unmarked: "v marked at
// u" is exactly "v ∈ list[u]". Other initial labelings are legal BLL states
// but only those satisfying the global condition of Welch & Walter preserve
// acyclicity — the ablation tests exercise both sides of that condition.
type BLL struct {
	machine
	marked lists // marked[u] = neighbours whose edge is marked at u
}

// NewBLL creates a BLL automaton. initialMarks[u] lists the neighbours whose
// edge starts marked at u; a nil map means all labels start unmarked (the PR
// special case). Marks naming non-neighbours are rejected.
func NewBLL(in *Init, initialMarks map[graph.NodeID][]graph.NodeID) (*BLL, error) {
	marked := newLists(in)
	for u, vs := range initialMarks {
		if !in.g.ValidNode(u) {
			return nil, fmt.Errorf("core: BLL mark on unknown node %d", u)
		}
		for _, v := range vs {
			if !in.g.HasEdge(u, v) {
				return nil, fmt.Errorf("core: BLL mark %d at %d is not an edge", v, u)
			}
			marked.add(u, v)
		}
	}
	return &BLL{machine: newMachine("BLL", in), marked: marked}, nil
}

// Marked returns the neighbours whose edge is currently marked at u.
func (b *BLL) Marked(u graph.NodeID) []graph.NodeID { return b.marked.members(u) }

// Step implements automaton.Automaton; only ReverseNode actions are valid.
func (b *BLL) Step(a automaton.Action) error {
	u, err := b.checkNode(a)
	if err != nil {
		return err
	}
	b.reverseListed(b.marked, u)
	b.steps++
	return nil
}

// CloneAutomaton implements automaton.Cloner.
func (b *BLL) CloneAutomaton() automaton.Automaton { return b.Clone() }

// Clone returns a deep copy sharing the immutable Init.
func (b *BLL) Clone() *BLL { return &BLL{machine: b.machine.clone(), marked: b.marked.clone()} }
