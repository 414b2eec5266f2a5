package graph

import (
	"fmt"
	"slices"
	"strings"
)

// Direction is the orientation of an edge relative to one endpoint, matching
// the dir[u,v] state variable of the paper's automata.
type Direction int

const (
	// In means the edge is incoming at this endpoint.
	In Direction = iota + 1
	// Out means the edge is outgoing at this endpoint.
	Out
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Flip returns the opposite direction.
func (d Direction) Flip() Direction {
	if d == In {
		return Out
	}
	return In
}

// Orientation is a directed version G' of a Graph: every edge {u,v} of G is
// directed either u→v or v→u. It corresponds to the collection of dir[u,v]
// variables in the paper, with Invariant 3.1 (dir[u,v] = in iff dir[v,u] =
// out) enforced by construction: we store, per edge, the single endpoint the
// edge currently points *toward*.
//
// An Orientation is mutable (edges reverse during algorithm execution) and is
// not safe for concurrent use.
type Orientation struct {
	g *Graph
	// toward[i] is the endpoint that edge g.edges[i] currently points to.
	toward []NodeID
	// indeg[u] is the number of incoming edges at u, maintained incrementally
	// so sink checks are O(1).
	indeg []int
}

// NewOrientation creates an orientation of g in which every edge points from
// the lower-numbered to the higher-numbered endpoint. This is a valid DAG
// orientation for any graph (node order is a topological order).
func NewOrientation(g *Graph) *Orientation {
	o := &Orientation{
		g:      g,
		toward: make([]NodeID, g.NumEdges()),
		indeg:  make([]int, g.NumNodes()),
	}
	for i, e := range g.edges {
		o.toward[i] = e.V // e.U < e.V by normalization
		o.indeg[e.V]++
	}
	return o
}

// OrientationFromDirected creates an orientation of g with explicit directed
// edges. Each pair (from, to) must correspond to an edge of g, and every edge
// of g must be covered exactly once.
func OrientationFromDirected(g *Graph, directed [][2]NodeID) (*Orientation, error) {
	if len(directed) != g.NumEdges() {
		return nil, fmt.Errorf("graph: got %d directed edges, want %d", len(directed), g.NumEdges())
	}
	o := &Orientation{
		g:      g,
		toward: make([]NodeID, g.NumEdges()),
		indeg:  make([]int, g.NumNodes()),
	}
	covered := make([]bool, g.NumEdges())
	for _, d := range directed {
		from, to := d[0], d[1]
		i, ok := g.EdgeIndex(from, to)
		if !ok {
			return nil, fmt.Errorf("%w: (%d,%d)", ErrNoSuchEdge, from, to)
		}
		if covered[i] {
			return nil, fmt.Errorf("%w: (%d,%d) assigned twice", ErrDuplicateEdge, from, to)
		}
		covered[i] = true
		o.toward[i] = to
		o.indeg[to]++
	}
	return o, nil
}

// OrientationFromHeads creates the orientation of g in which edge i of
// g.Edges() points toward head[i]. Every head must be an endpoint of its
// edge. The orientation takes ownership of head.
func OrientationFromHeads(g *Graph, head []NodeID) (*Orientation, error) {
	if len(head) != g.NumEdges() {
		return nil, fmt.Errorf("graph: got %d heads, want %d", len(head), g.NumEdges())
	}
	o := &Orientation{g: g, toward: head, indeg: make([]int, g.NumNodes())}
	for i, e := range g.edges {
		h := head[i]
		if h != e.U && h != e.V {
			return nil, fmt.Errorf("%w: {%d,%d} cannot point toward %d", ErrNoSuchEdge, e.U, e.V, h)
		}
		o.indeg[h]++
	}
	return o, nil
}

// Graph returns the underlying undirected graph.
func (o *Orientation) Graph() *Graph { return o.g }

// Dir returns dir[u, v]: the direction of edge {u,v} from u's perspective.
// The second result is false if {u,v} is not an edge.
func (o *Orientation) Dir(u, v NodeID) (Direction, bool) {
	i, ok := o.g.EdgeIndex(u, v)
	if !ok {
		return 0, false
	}
	if o.toward[i] == u {
		return In, true
	}
	return Out, true
}

// IncomingAt reports whether the edge at u's i-th slot, the one to
// g.Neighbors(u)[i], points toward u.
func (o *Orientation) IncomingAt(u NodeID, i int) bool { return o.toward[o.g.EdgeAt(u, i)] == u }

// PointsTo reports whether the edge {u,v} is currently directed u→v.
// It returns false if {u,v} is not an edge.
func (o *Orientation) PointsTo(u, v NodeID) bool {
	d, ok := o.Dir(u, v)
	return ok && d == Out
}

// Reverse flips the direction of edge {u,v}. It returns ErrNoSuchEdge if the
// edge does not exist.
func (o *Orientation) Reverse(u, v NodeID) error {
	i, ok := o.g.EdgeIndex(u, v)
	if !ok {
		return fmt.Errorf("%w: {%d,%d}", ErrNoSuchEdge, u, v)
	}
	o.reverseIndex(i)
	return nil
}

func (o *Orientation) reverseIndex(i int) {
	e := o.g.edges[i]
	old := o.toward[i]
	var next NodeID
	if old == e.U {
		next = e.V
	} else {
		next = e.U
	}
	o.toward[i] = next
	o.indeg[old]--
	o.indeg[next]++
}

// InDegree returns the number of incoming edges at u.
func (o *Orientation) InDegree(u NodeID) int {
	if !o.g.ValidNode(u) {
		return 0
	}
	return o.indeg[u]
}

// OutDegree returns the number of outgoing edges at u.
func (o *Orientation) OutDegree(u NodeID) int {
	if !o.g.ValidNode(u) {
		return 0
	}
	return o.g.Degree(u) - o.indeg[u]
}

// IsSink reports whether all edges incident to u are incoming. Nodes with no
// neighbours are vacuously sinks, matching the automata's precondition
// "for each v ∈ nbrs(u), dir[u,v] = in".
func (o *Orientation) IsSink(u NodeID) bool {
	return o.g.ValidNode(u) && o.indeg[u] == o.g.Degree(u)
}

// IsSource reports whether all edges incident to u are outgoing.
func (o *Orientation) IsSource(u NodeID) bool {
	return o.g.ValidNode(u) && o.indeg[u] == 0
}

// Sinks returns all current sink nodes in ascending order, excluding nodes
// listed in exclude (typically the destination).
func (o *Orientation) Sinks(exclude ...NodeID) []NodeID {
	var out []NodeID
	for u := range o.g.NumNodes() {
		if id := NodeID(u); o.IsSink(id) && !slices.Contains(exclude, id) {
			out = append(out, id)
		}
	}
	return out
}

// InNeighbors returns the nodes with edges currently directed toward u,
// in ascending order.
func (o *Orientation) InNeighbors(u NodeID) []NodeID { return o.neighbors(u, true) }

// OutNeighbors returns the nodes u currently points to, in ascending order.
func (o *Orientation) OutNeighbors(u NodeID) []NodeID { return o.neighbors(u, false) }

// neighbors walks u's slots and returns, in ascending order, the
// neighbours whose edge points toward u (in) or away from it.
func (o *Orientation) neighbors(u NodeID, in bool) []NodeID {
	if !o.g.ValidNode(u) {
		return nil
	}
	var out []NodeID
	for s := o.g.off[u]; s < o.g.off[u+1]; s++ {
		if o.in(u, s) == in {
			out = append(out, o.g.nbr[s])
		}
	}
	return out
}

// in reports whether the edge at u's absolute slot s points toward u.
func (o *Orientation) in(u NodeID, s int) bool { return o.toward[o.g.slot[s].eid] == u }

// Clone returns a deep copy sharing the immutable underlying Graph.
func (o *Orientation) Clone() *Orientation {
	c := &Orientation{
		g:      o.g,
		toward: make([]NodeID, len(o.toward)),
		indeg:  make([]int, len(o.indeg)),
	}
	copy(c.toward, o.toward)
	copy(c.indeg, o.indeg)
	return c
}

// Equal reports whether o and other orient every edge identically. Both must
// be orientations of the same underlying graph value.
func (o *Orientation) Equal(other *Orientation) bool {
	if o.g != other.g {
		if o.g.NumNodes() != other.g.NumNodes() || o.g.NumEdges() != other.g.NumEdges() {
			return false
		}
	}
	for i := range o.toward {
		if o.toward[i] != other.toward[i] {
			return false
		}
	}
	return true
}

// DirectedEdges returns all edges as (from, to) pairs in edge-index order.
func (o *Orientation) DirectedEdges() [][2]NodeID {
	out := make([][2]NodeID, len(o.toward))
	for i, e := range o.g.edges {
		if o.toward[i] == e.V {
			out[i] = [2]NodeID{e.U, e.V}
		} else {
			out[i] = [2]NodeID{e.V, e.U}
		}
	}
	return out
}

// String renders the orientation as a list of directed edges.
func (o *Orientation) String() string {
	var b strings.Builder
	b.WriteString("G'{")
	for i, d := range o.DirectedEdges() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d→%d", d[0], d[1])
	}
	b.WriteString("}")
	return b.String()
}
