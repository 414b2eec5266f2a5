package core

import (
	"fmt"
	"slices"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// Height is the (a, b, id) triple assigned to each node by the original
// Gafni–Bertsekas formulation of Partial Reversal. Heights are compared
// lexicographically and every edge points from the higher to the lower
// endpoint, so the induced directed graph is always acyclic by construction
// — this is exactly the labeling mechanism the paper's new proof avoids.
type Height struct {
	A  int
	B  int
	ID graph.NodeID
}

// Less reports whether h is lexicographically smaller than other.
func (h Height) Less(other Height) bool {
	if h.A != other.A {
		return h.A < other.A
	}
	if h.B != other.B {
		return h.B < other.B
	}
	return h.ID < other.ID
}

// String implements fmt.Stringer.
func (h Height) String() string { return fmt.Sprintf("(%d,%d,%d)", h.A, h.B, h.ID) }

// GBPair is the height-based Partial Reversal automaton of Gafni & Bertsekas
// (1981). Every node u holds a Height triple; the orientation is derived:
// edge {u,v} points from the larger to the smaller height.
//
// When a sink u (other than the destination) takes a step it moves to the
// height PairStep computes from its neighbours' heights. Initial heights are
// PairHeight's, so the induced orientation equals G'_init.
type GBPair struct {
	machine
	heights []Height
}

// NewGBPair creates a GBPair automaton with heights inducing G'_init.
func NewGBPair(in *Init) *GBPair {
	n := in.g.NumNodes()
	hs := make([]Height, n)
	for u := range n {
		hs[u] = in.PairHeight(graph.NodeID(u))
	}
	return &GBPair{machine: newMachine("GBPair", in), heights: hs}
}

// Height returns the current height triple of u.
func (g *GBPair) Height(u graph.NodeID) Height { return g.heights[u] }

// Step implements automaton.Automaton; only ReverseNode actions are valid.
func (g *GBPair) Step(a automaton.Action) error {
	u, err := g.checkNode(a)
	if err != nil {
		return err
	}
	nbrs := g.init.g.Neighbors(u)
	g.heights[u] = PairStep(g.heights[u], len(nbrs), func(i int) Height { return g.heights[nbrs[i]] })
	// Re-derive the orientation of u's incident edges from heights: the edge
	// {u,v} points from the larger to the smaller height.
	for _, v := range nbrs {
		pointsToV := g.heights[v].Less(g.heights[u]) // u higher ⇒ u→v
		if g.orient.PointsTo(u, v) != pointsToV {
			g.reverse(u, v)
		}
	}
	g.steps++
	return nil
}

// CloneAutomaton implements automaton.Cloner.
func (g *GBPair) CloneAutomaton() automaton.Automaton { return g.Clone() }

// Clone returns a deep copy sharing the immutable Init.
func (g *GBPair) Clone() *GBPair {
	return &GBPair{machine: g.machine.clone(), heights: slices.Clone(g.heights)}
}
