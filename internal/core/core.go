// Package core implements the link-reversal algorithms of Radeva & Lynch,
// "Partial Reversal Acyclicity" (MIT-CSAIL-TR-2011-022 / PODC 2011), together
// with the baselines they are compared against:
//
//   - PR        — the original Partial Reversal automaton (Algorithm 1),
//     with set actions reverse(S).
//   - OneStepPR — PR restricted to single-node steps (Algorithm 3).
//   - NewPR     — the paper's static reformulation using initial
//     in-/out-neighbour sets and a step-parity bit (Algorithm 2).
//   - FR        — Full Reversal (Gafni & Bertsekas 1981), the classic
//     baseline in which a sink reverses all incident edges.
//   - GBPair    — the original Gafni–Bertsekas height-based formulation of
//     Partial Reversal with (a, b, id) triples.
//   - GBFull    — the height-based formulation of Full Reversal with (a, id)
//     pairs.
//   - BLL       — Binary Link Labels (Welch & Walter), the generalization
//     of which PR is the all-unmarked special case.
//
// Every automaton embeds one unexported machine (machine.go), which holds
// what the paper's automata share: the immutable Init, the orientation G′,
// the step and reversal counts, the accessors, and the checks of a
// reverse(u) or reverse(S) action against the one precondition "u is a
// sink other than D". Each automaton declares only its own state and
// effect. PR's list rule is written once, as reverseListed over per-node
// neighbour sets: PR and OneStepPR apply it to list[u], and BLL to its
// marks.
//
// Variants is the one table of the sequential automata with their
// invariant suites (PR, OneStepPR, NewPR, FR, GBPair, GBFull); the public
// API, lrmc, the experiments and the hunter all read it.
//
// The package also provides executable checkers for every invariant and
// simulation relation in the paper (see invariants.go and simulation.go).
package core

import (
	"errors"
	"fmt"
	"sort"

	"linkreversal/internal/graph"
)

// Construction errors.
var (
	// ErrCyclicInitial is returned when the supplied initial orientation
	// contains a directed cycle; all algorithms require an initial DAG.
	ErrCyclicInitial = errors.New("core: initial orientation is not acyclic")
	// ErrBadDestination is returned when the destination is not a node of
	// the graph.
	ErrBadDestination = errors.New("core: destination is not a node of the graph")
)

// nodeSet is a small set of node IDs. The zero value is an empty set ready
// for use via add (which allocates lazily through the owning map).
type nodeSet map[graph.NodeID]struct{}

func newNodeSet() nodeSet { return make(nodeSet) }

func (s nodeSet) add(u graph.NodeID)      { s[u] = struct{}{} }
func (s nodeSet) has(u graph.NodeID) bool { _, ok := s[u]; return ok }
func (s nodeSet) size() int               { return len(s) }
func (s nodeSet) clear() {
	for k := range s {
		delete(s, k)
	}
}

// sorted returns the members in ascending order.
func (s nodeSet) sorted() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s))
	for u := range s {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// equalSlice reports whether the set contains exactly the elements of vs
// (which must be duplicate-free).
func (s nodeSet) equalSlice(vs []graph.NodeID) bool {
	if len(s) != len(vs) {
		return false
	}
	for _, v := range vs {
		if !s.has(v) {
			return false
		}
	}
	return true
}

// subsetOfSlice reports whether every member of s appears in vs.
func (s nodeSet) subsetOfSlice(vs []graph.NodeID) bool {
	if len(s) == 0 {
		return true
	}
	in := make(map[graph.NodeID]struct{}, len(vs))
	for _, v := range vs {
		in[v] = struct{}{}
	}
	for u := range s {
		if _, ok := in[u]; !ok {
			return false
		}
	}
	return true
}

// Init captures everything that is fixed for the lifetime of an execution:
// the undirected graph G, the destination D, the initial orientation G'_init,
// the initial in-/out-neighbour sets of every node, and the left-to-right
// planar embedding used by Invariant 4.1.
type Init struct {
	g       *graph.Graph
	dest    graph.NodeID
	initial *graph.Orientation
	emb     *graph.Embedding
	inNbrs  [][]graph.NodeID
	outNbrs [][]graph.NodeID
}

// NewInit validates the inputs (destination in range, acyclic initial
// orientation) and precomputes the immutable per-node sets.
func NewInit(g *graph.Graph, initial *graph.Orientation, dest graph.NodeID) (*Init, error) {
	if !g.ValidNode(dest) {
		return nil, fmt.Errorf("%w: %d", ErrBadDestination, dest)
	}
	if !graph.IsAcyclic(initial) {
		return nil, ErrCyclicInitial
	}
	emb, err := graph.NewEmbedding(initial)
	if err != nil {
		return nil, fmt.Errorf("core: embed initial orientation: %w", err)
	}
	n := g.NumNodes()
	in := &Init{
		g:       g,
		dest:    dest,
		initial: initial.Clone(),
		emb:     emb,
		inNbrs:  make([][]graph.NodeID, n),
		outNbrs: make([][]graph.NodeID, n),
	}
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		in.inNbrs[u] = initial.InNeighbors(id)
		in.outNbrs[u] = initial.OutNeighbors(id)
	}
	return in, nil
}

// DefaultInit builds an Init from the canonical low→high orientation of g.
func DefaultInit(g *graph.Graph, dest graph.NodeID) (*Init, error) {
	return NewInit(g, graph.NewOrientation(g), dest)
}

// Graph returns G.
func (in *Init) Graph() *graph.Graph { return in.g }

// Destination returns D.
func (in *Init) Destination() graph.NodeID { return in.dest }

// InitialOrientation returns a fresh copy of G'_init.
func (in *Init) InitialOrientation() *graph.Orientation { return in.initial.Clone() }

// Embedding returns the left-to-right embedding of G'_init.
func (in *Init) Embedding() *graph.Embedding { return in.emb }

// InNbrs returns in-nbrs(u) in G'_init. Callers must not modify the slice.
func (in *Init) InNbrs(u graph.NodeID) []graph.NodeID { return in.inNbrs[u] }

// OutNbrs returns out-nbrs(u) in G'_init. Callers must not modify the slice.
func (in *Init) OutNbrs(u graph.NodeID) []graph.NodeID { return in.outNbrs[u] }
