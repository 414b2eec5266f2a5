package core

import (
	"fmt"

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
	init    *Init
	orient  *graph.Orientation
	heights []Height
	steps   int
	work    int
}

var (
	_ automaton.Automaton = (*GBPair)(nil)
	_ automaton.Cloner    = (*GBPair)(nil)
)

// NewGBPair creates a GBPair automaton with heights inducing G'_init.
func NewGBPair(in *Init) *GBPair {
	n := in.g.NumNodes()
	hs := make([]Height, n)
	for u := range n {
		hs[u] = in.PairHeight(graph.NodeID(u))
	}
	return &GBPair{
		init:    in,
		orient:  in.InitialOrientation(),
		heights: hs,
	}
}

// Name implements automaton.Automaton.
func (g *GBPair) Name() string { return "GBPair" }

// Graph implements automaton.Automaton.
func (g *GBPair) Graph() *graph.Graph { return g.init.g }

// Orientation implements automaton.Automaton.
func (g *GBPair) Orientation() *graph.Orientation { return g.orient }

// Destination implements automaton.Automaton.
func (g *GBPair) Destination() graph.NodeID { return g.init.dest }

// Init returns the immutable initial data shared by all variants.
func (g *GBPair) Init() *Init { return g.init }

// Height returns the current height triple of u.
func (g *GBPair) Height(u graph.NodeID) Height { return g.heights[u] }

// Steps implements automaton.Automaton.
func (g *GBPair) Steps() int { return g.steps }

// TotalReversals returns the total number of edge reversals performed.
func (g *GBPair) TotalReversals() int { return g.work }

// Quiescent implements automaton.Automaton.
func (g *GBPair) Quiescent() bool { return len(g.init.enabledSinks(g.orient)) == 0 }

// Enabled implements automaton.Automaton.
func (g *GBPair) Enabled() []automaton.Action {
	sinks := g.init.enabledSinks(g.orient)
	acts := make([]automaton.Action, len(sinks))
	for i, u := range sinks {
		acts[i] = automaton.ReverseNode{U: u}
	}
	return acts
}

// Step implements automaton.Automaton; only ReverseNode actions are valid.
func (g *GBPair) Step(a automaton.Action) error {
	act, ok := a.(automaton.ReverseNode)
	if !ok {
		return fmt.Errorf("%w: GBPair accepts reverse(u), got %T", automaton.ErrInvalidAction, a)
	}
	u := act.U
	if !g.init.g.ValidNode(u) {
		return fmt.Errorf("%w: node %d out of range", automaton.ErrInvalidAction, u)
	}
	if u == g.init.dest {
		return fmt.Errorf("%w: destination %d cannot step", automaton.ErrInvalidAction, u)
	}
	if !g.init.isEnabledSink(g.orient, u) {
		return fmt.Errorf("%w: node %d is not an enabled sink", automaton.ErrPreconditionFailed, u)
	}
	nbrs := g.init.g.Neighbors(u)
	g.heights[u] = PairStep(g.heights[u], len(nbrs), func(i int) Height { return g.heights[nbrs[i]] })
	// Re-derive the orientation of u's incident edges from heights: the edge
	// {u,v} points from the larger to the smaller height.
	for _, v := range nbrs {
		pointsToV := g.heights[v].Less(g.heights[u]) // u higher ⇒ u→v
		if g.orient.PointsTo(u, v) != pointsToV {
			if err := g.orient.Reverse(u, v); err != nil {
				panic(fmt.Sprintf("core: reverse existing edge {%d,%d}: %v", u, v, err))
			}
			g.work++
		}
	}
	g.steps++
	return nil
}

// CloneAutomaton implements automaton.Cloner.
func (g *GBPair) CloneAutomaton() automaton.Automaton { return g.Clone() }

// Clone returns a deep copy sharing the immutable Init.
func (g *GBPair) Clone() *GBPair {
	hs := make([]Height, len(g.heights))
	copy(hs, g.heights)
	return &GBPair{
		init:    g.init,
		orient:  g.orient.Clone(),
		heights: hs,
		steps:   g.steps,
		work:    g.work,
	}
}
