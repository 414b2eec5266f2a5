package core

import (
	"fmt"
	"slices"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// FullHeight is the (a, id) pair assigned to each node by the height-based
// formulation of Full Reversal (Gafni & Bertsekas 1981). Pairs are compared
// lexicographically; every edge points from the higher to the lower
// endpoint.
type FullHeight struct {
	A  int
	ID graph.NodeID
}

// Less reports whether h is lexicographically smaller than other.
func (h FullHeight) Less(other FullHeight) bool {
	if h.A != other.A {
		return h.A < other.A
	}
	return h.ID < other.ID
}

// String implements fmt.Stringer.
func (h FullHeight) String() string { return fmt.Sprintf("(%d,%d)", h.A, h.ID) }

// GBFull is the height-based Full Reversal automaton: when a sink u takes a
// step it sets
//
//	a[u] := 1 + max{ a[v] : v ∈ nbrs(u) }
//
// making u larger than all its neighbours, i.e. reversing every incident
// edge. It is the pair-label counterpart of FR, used to cross-validate the
// direct FR implementation the same way GBPair cross-validates PR.
//
// Initial heights (0, −pos(u)) cannot express an arbitrary initial DAG with
// a single integer per node, so GBFull assigns a[u] = pos-rank from the
// embedding: a[u] = n − 1 − pos(u), which orients every initial edge
// identically to G'_init.
type GBFull struct {
	machine
	heights []FullHeight
}

// NewGBFull creates a GBFull automaton with heights inducing G'_init.
func NewGBFull(in *Init) *GBFull {
	n := in.g.NumNodes()
	hs := make([]FullHeight, n)
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		hs[u] = FullHeight{A: n - 1 - in.emb.Pos(id), ID: id}
	}
	return &GBFull{machine: newMachine("GBFull", in), heights: hs}
}

// Height returns the current height pair of u.
func (g *GBFull) Height(u graph.NodeID) FullHeight { return g.heights[u] }

// Step implements automaton.Automaton; only ReverseNode actions are valid.
func (g *GBFull) Step(a automaton.Action) error {
	u, err := g.checkNode(a)
	if err != nil {
		return err
	}
	nbrs := g.init.g.Neighbors(u)
	maxA := g.heights[nbrs[0]].A
	for _, v := range nbrs[1:] {
		if g.heights[v].A > maxA {
			maxA = g.heights[v].A
		}
	}
	g.heights[u] = FullHeight{A: maxA + 1, ID: u}
	for _, v := range nbrs {
		// u is now the largest in its neighbourhood: every edge reverses.
		if !g.orient.PointsTo(u, v) {
			g.reverse(u, v)
		}
	}
	g.steps++
	return nil
}

// CloneAutomaton implements automaton.Cloner.
func (g *GBFull) CloneAutomaton() automaton.Automaton { return g.Clone() }

// Clone returns a deep copy sharing the immutable Init.
func (g *GBFull) Clone() *GBFull {
	return &GBFull{machine: g.machine.clone(), heights: slices.Clone(g.heights)}
}
