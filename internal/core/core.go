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
// neighbour sets kept as one bit per slot of the graph's rows: PR and
// OneStepPR apply it to list[u], and BLL to its marks.
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
	"sync"

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
	// ErrForeignOrientation is returned when the initial orientation does
	// not orient the given graph: its graph is neither the same value nor
	// one with the same node count and the same edge list in the same order.
	ErrForeignOrientation = errors.New("core: initial orientation is of a different graph")
)

// Init captures everything that is fixed for the lifetime of an execution:
// the undirected graph G, the destination D, the initial orientation G'_init,
// the initial in-/out-neighbour sets of every node, and the left-to-right
// planar embedding used by Invariant 4.1.
//
// The neighbour sets share one flat array laid out like the graph's rows:
// node u's range starts at g.RowStart(u) and holds in-nbrs(u), then
// out-nbrs(u), each ascending; the split is u's initial in-degree. NewPR
// and the invariant and simulation checks read the sets, and a run of any
// other variant never does, so the array is built the first time they are
// asked for. An Init is safe for concurrent use.
type Init struct {
	g       *graph.Graph
	dest    graph.NodeID
	initial *graph.Orientation
	emb     *graph.Embedding

	nbrsOnce sync.Once
	nbrs     []graph.NodeID
}

// NewInit validates the inputs (destination in range, an acyclic initial
// orientation of g) and keeps a copy of the initial orientation, from which
// the per-node sets are derived when first asked for.
func NewInit(g *graph.Graph, initial *graph.Orientation, dest graph.NodeID) (*Init, error) {
	if !g.ValidNode(dest) {
		return nil, fmt.Errorf("%w: %d", ErrBadDestination, dest)
	}
	if !g.Equal(initial.Graph()) {
		return nil, fmt.Errorf("%w: orientation of %v given for %v", ErrForeignOrientation, initial.Graph(), g)
	}
	// The embedding is a topological order, so building it proves
	// acyclicity.
	emb, err := graph.NewEmbedding(initial)
	if err != nil {
		return nil, ErrCyclicInitial
	}
	return &Init{g: g, dest: dest, initial: initial.Clone(), emb: emb}, nil
}

// sets returns the flat array of the initial in-/out-neighbour sets,
// building it on the first call.
func (in *Init) sets() []graph.NodeID {
	in.nbrsOnce.Do(func() {
		in.nbrs = make([]graph.NodeID, 2*in.g.NumEdges())
		for u := range in.g.NumNodes() {
			id := graph.NodeID(u)
			i := in.g.RowStart(id)
			o := i + in.InDegree(id)
			for j, v := range in.g.Neighbors(id) {
				if in.initial.IncomingAt(id, j) {
					in.nbrs[i] = v
					i++
				} else {
					in.nbrs[o] = v
					o++
				}
			}
		}
	})
	return in.nbrs
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

// InNbrs returns in-nbrs(u) in G'_init, ascending, or nil if it is empty.
// Callers must not modify the slice.
func (in *Init) InNbrs(u graph.NodeID) []graph.NodeID {
	lo := in.g.RowStart(u)
	return in.part(lo, lo+in.InDegree(u))
}

// OutNbrs returns out-nbrs(u) in G'_init, ascending, or nil if it is empty.
// Callers must not modify the slice.
func (in *Init) OutNbrs(u graph.NodeID) []graph.NodeID {
	lo := in.g.RowStart(u)
	return in.part(lo+in.InDegree(u), lo+in.g.Degree(u))
}

// InDegree returns |in-nbrs(u)|, u's in-degree in G'_init.
func (in *Init) InDegree(u graph.NodeID) int { return in.initial.InDegree(u) }

// part returns the sets' [lo, hi), capacity-limited, or nil if it is empty.
func (in *Init) part(lo, hi int) []graph.NodeID {
	if lo == hi {
		return nil
	}
	return in.sets()[lo:hi:hi]
}

// InitiallyIncoming reports whether the edge at u's i-th slot, the one to
// g.Neighbors(u)[i], pointed toward u in G'_init.
func (in *Init) InitiallyIncoming(u graph.NodeID, i int) bool { return in.initial.IncomingAt(u, i) }
