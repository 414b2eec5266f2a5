// Package graph provides the static undirected communication graph G and the
// mutable directed orientation G' used by all link-reversal algorithms.
//
// The model follows Section 2 of Radeva & Lynch: G = (V, E) is a fixed
// undirected graph with a single destination node D. A directed version G'
// assigns exactly one direction to every edge of G. The sets nbrs(u),
// in-nbrs(u) and out-nbrs(u) are defined once, against the *initial*
// orientation, and never change afterwards.
//
// # Memory layout
//
// A Graph keeps its adjacency in compressed sparse rows: node u's slots
// are one contiguous range of two flat arrays, the neighbours in ascending
// order and, parallel to them, one 8-byte record per slot holding the
// index of the edge to that neighbour and the slot's twin, the position of
// the same edge in the neighbour's row. Neighbors returns u's row itself.
// An Orientation stores one head per edge, the endpoint the edge points
// toward, so the direction of the edge at a slot is one read through that
// slot's edge ID, and the walks of analysis.go visit every slot once
// without allocating per node. Crossing an edge from one end's slot to the
// other's reads the twin; only finding the edge between two given nodes
// binary-searches the shorter of their rows. No lookup goes through a map.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// NodeID identifies a node. IDs are dense: a graph with n nodes uses IDs
// 0..n-1. The destination is an ordinary NodeID distinguished only by the
// algorithms, not by the graph itself.
type NodeID int

// Edge is an undirected edge between two distinct nodes. Edges are stored in
// normalized form (U < V) so that {u,v} and {v,u} are the same edge.
type Edge struct {
	U, V NodeID
}

// NormalizedEdge returns e with endpoints ordered so that U < V.
func NormalizedEdge(a, b NodeID) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// Errors returned by graph construction and mutation.
var (
	ErrNodeOutOfRange = errors.New("graph: node out of range")
	ErrSelfLoop       = errors.New("graph: self-loops are not allowed")
	ErrDuplicateEdge  = errors.New("graph: duplicate edge")
	ErrNoSuchEdge     = errors.New("graph: no such edge")
)

// Graph is the fixed undirected graph G = (V, E). It is immutable after
// construction via Builder; the zero value is an empty graph with no nodes.
type Graph struct {
	n     int
	edges []Edge
	// off[u]..off[u+1]-1 are u's slots in nbr and slot (n+1 entries).
	off []int
	// nbr[s] is the neighbour at slot s; each row is ascending.
	nbr []NodeID
	// slot[s] is the edge at slot s and the slot's twin.
	slot []slotEdge
}

// slotEdge is one slot's record of its edge: the edge's index in edges,
// and twin, the index of the same edge in the neighbour's row. The two
// share one record because buildRows writes them together, at a position
// scattered across the rows.
type slotEdge struct{ eid, twin int32 }

// Builder accumulates nodes and edges and produces an immutable Graph.
type Builder struct {
	n     int
	edges []Edge
	err   error
}

// NewBuilder returns a Builder for a graph with n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder { return &Builder{n: max(n, 0)} }

// AddEdge records the undirected edge {a, b}. Errors are sticky: after the
// first failure, subsequent calls are no-ops and Build reports the error.
// Build, not AddEdge, finds duplicate edges.
func (b *Builder) AddEdge(a, c NodeID) *Builder {
	if b.err != nil {
		return b
	}
	if a < 0 || c < 0 || int(a) >= b.n || int(c) >= b.n {
		b.err = fmt.Errorf("%w: edge {%d,%d} in graph of %d nodes", ErrNodeOutOfRange, a, c, b.n)
		return b
	}
	if a == c {
		b.err = fmt.Errorf("%w: node %d", ErrSelfLoop, a)
		return b
	}
	b.edges = append(b.edges, NormalizedEdge(a, c))
	return b
}

// Build finalizes the graph. It returns the first error in AddEdge order:
// every recorded edge precedes a sticky range or self-loop error, so that
// is the first repeated edge if there is one, else the sticky error.
func (b *Builder) Build() (*Graph, error) {
	// The graph shares the recorded edges: AddEdge only ever appends, past
	// the clipped end, so none that the graph holds can change.
	g := &Graph{n: b.n, edges: slices.Clip(b.edges)}
	g.buildRows()
	if e, ok := g.firstDuplicate(); ok {
		return nil, fmt.Errorf("%w: {%d,%d}", ErrDuplicateEdge, e.U, e.V)
	}
	if b.err != nil {
		return nil, b.err
	}
	return g, nil
}

// buildRows lays out the rows in O(n + m), without comparisons. Row u keeps
// its lower neighbours before its higher ones, split at mid[u]. The edges
// are scattered into the higher parts in insertion order; one sweep over
// the rows in ascending order then writes every lower part from the higher
// parts, and a second rewrites every higher part from the lower parts.
// Each sweep appends to a part in ascending order of the row it reads, so
// both parts come out sorted, and copies of one edge keep their insertion
// order. The second sweep reads every lower part where it stays and writes
// every higher part where it stays, so it also makes each slot it reads and
// the slot it writes from it twins.
func (g *Graph) buildRows() {
	n := g.n
	g.off = make([]int, n+1)
	mid := make([]int, n)
	for _, e := range g.edges {
		g.off[e.U+1]++
		g.off[e.V+1]++
		mid[e.V]++
	}
	for u := range n {
		g.off[u+1] += g.off[u]
		mid[u] += g.off[u]
	}
	g.nbr = make([]NodeID, 2*len(g.edges))
	g.slot = make([]slotEdge, 2*len(g.edges))
	at := slices.Clone(mid) // the next free slot of each part being written
	for i, e := range g.edges {
		g.nbr[at[e.U]], g.slot[at[e.U]].eid = e.V, int32(i)
		at[e.U]++
	}
	copy(at, g.off)
	for w := range n {
		for s := mid[w]; s < g.off[w+1]; s++ {
			v := g.nbr[s]
			g.nbr[at[v]], g.slot[at[v]].eid = NodeID(w), g.slot[s].eid
			at[v]++
		}
	}
	copy(at, mid)
	for w := range n {
		for s := g.off[w]; s < mid[w]; s++ {
			v := g.nbr[s]
			t := at[v]
			g.nbr[t] = NodeID(w)
			g.slot[t] = slotEdge{eid: g.slot[s].eid, twin: int32(s - g.off[w])}
			g.slot[s].twin = int32(t - g.off[v])
			at[v]++
		}
	}
}

// firstDuplicate returns the first edge, in insertion order, that repeats
// an earlier one. Copies of an edge sit next to each other in its rows, in
// insertion order.
func (g *Graph) firstDuplicate() (Edge, bool) {
	first := int32(-1)
	for u := range g.n {
		for s := g.off[u] + 1; s < g.off[u+1]; s++ {
			if g.nbr[s] == g.nbr[s-1] && (first < 0 || g.slot[s].eid < first) {
				first = g.slot[s].eid
			}
		}
	}
	if first < 0 {
		return Edge{}, false
	}
	return g.edges[first], true
}

// MustBuild is Build for statically known-good graphs; it panics on error.
// Intended for tests and examples.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns a copy of the edge list in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Neighbors returns the neighbours of u in ascending order. The returned
// slice is shared and capacity-limited, and must not be modified by
// callers; use CopyNeighbors for a private copy.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	if !g.ValidNode(u) {
		return nil
	}
	return g.nbr[g.off[u]:g.off[u+1]:g.off[u+1]]
}

// CopyNeighbors returns a fresh copy of the neighbours of u.
func (g *Graph) CopyNeighbors(u NodeID) []NodeID {
	nbrs := g.Neighbors(u)
	out := make([]NodeID, len(nbrs))
	copy(out, nbrs)
	return out
}

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u NodeID) int { return len(g.Neighbors(u)) }

// HasEdge reports whether {a, b} is an edge of G.
func (g *Graph) HasEdge(a, b NodeID) bool {
	_, ok := g.EdgeIndex(a, b)
	return ok
}

// EdgeIndex returns the dense index of edge {a,b} in [0, NumEdges), suitable
// for parallel per-edge arrays. The second result is false if the edge does
// not exist. It binary-searches the shorter of the two rows.
func (g *Graph) EdgeIndex(a, b NodeID) (int, bool) {
	if !g.ValidNode(a) || !g.ValidNode(b) {
		return 0, false
	}
	if g.off[a+1]-g.off[a] > g.off[b+1]-g.off[b] {
		a, b = b, a
	}
	row := g.off[a]
	if i, ok := slices.BinarySearch(g.nbr[row:g.off[a+1]], b); ok {
		return int(g.slot[row+i].eid), true
	}
	return 0, false
}

// EdgeAt returns the index in Edges of the edge at u's i-th slot, the one
// to Neighbors(u)[i].
func (g *Graph) EdgeAt(u NodeID, i int) int { return int(g.slot[g.off[u]:g.off[u+1]][i].eid) }

// TwinAt returns the twin of u's i-th slot: the index j of the same edge
// in the row of its other end v = Neighbors(u)[i], so that Neighbors(v)[j]
// is u. It pairs dir[u,v] with dir[v,u], as Invariant 3.1 does.
func (g *Graph) TwinAt(u NodeID, i int) int { return int(g.slot[g.off[u]:g.off[u+1]][i].twin) }

// RowStart returns where u's slots begin among the 2·NumEdges slots of all
// rows, which run node by node in ID order: u's i-th slot is slot
// RowStart(u)+i.
func (g *Graph) RowStart(u NodeID) int { return g.off[u] }

// Equal reports whether g and h have the same node count and the same edge
// list in the same order, so that their slots and edge indices coincide.
func (g *Graph) Equal(h *Graph) bool {
	return g == h || g.n == h.n && slices.Equal(g.edges, h.edges)
}

// ValidNode reports whether u is a node of g.
func (g *Graph) ValidNode(u NodeID) bool { return int(u) >= 0 && int(u) < g.n }

// Connected reports whether g is connected (or has at most one node).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	visited := make([]bool, g.n)
	stack := []NodeID{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Neighbors(u) {
			if !visited[v] {
				visited[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}

// String returns a compact human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, len(g.edges))
}
