package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// IsAcyclic reports whether the orientation contains no directed cycle.
// It runs Kahn's algorithm in O(V + E).
func IsAcyclic(o *Orientation) bool {
	_, ok := TopologicalOrder(o)
	return ok
}

// TopologicalOrder returns a topological order of the directed graph, i.e.
// every edge points from an earlier to a later node in the returned slice.
// The second result is false if the orientation contains a cycle.
func TopologicalOrder(o *Orientation) ([]NodeID, bool) {
	g := o.g
	n := g.NumNodes()
	// Process nodes sink-first, then reverse: a node is ready once all its
	// out-edges lead to already-processed nodes.
	outdeg := make([]int, n)
	queue := make([]NodeID, 0, n)
	for u := range n {
		outdeg[u] = o.OutDegree(NodeID(u))
		if outdeg[u] == 0 {
			queue = append(queue, NodeID(u))
		}
	}
	order := make([]NodeID, 0, n)
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, u)
		for s := g.off[u]; s < g.off[u+1]; s++ {
			if v := g.nbr[s]; o.in(u, s) {
				outdeg[v]--
				if outdeg[v] == 0 {
					queue = append(queue, v)
				}
			}
		}
	}
	if len(order) != n {
		return nil, false
	}
	// order currently lists sinks first; reverse it so edges go left→right.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, true
}

// DestinationDAG reports whether o is acyclic and whether every node has a
// directed path to dest: IsAcyclic and IsDestinationOriented, answered by
// one Kahn pass. An acyclic orientation is destination-oriented exactly
// when dest is its only sink, since a walk along out-edges that cannot
// revisit a node ends at a sink. So only a cyclic orientation pays for the
// reverse reachability search.
//
// The pass takes ready nodes in a forward sweep over node IDs, so its
// reads follow the rows; only a node that becomes ready behind the sweep
// waits on a stack, which is popped first. On an orientation whose edges
// all point toward lower IDs, such as a repaired grid's, nothing is ever
// pushed.
func DestinationDAG(o *Orientation, dest NodeID) (acyclic, oriented bool) {
	g := o.g
	n := g.NumNodes()
	// outdeg[u] counts u's out-edges to unprocessed nodes; -1 marks u
	// processed.
	outdeg := make([]int32, n)
	sinks := 0
	for u := range n {
		if outdeg[u] = int32(g.off[u+1] - g.off[u] - o.indeg[u]); outdeg[u] == 0 {
			sinks++
		}
	}
	oriented = n == 0 || sinks == 1 && g.ValidNode(dest) && outdeg[dest] == 0
	var behind []NodeID
	done, cursor := 0, 0
	for {
		var u int
		if k := len(behind); k > 0 {
			u = int(behind[k-1])
			behind = behind[:k-1]
		} else {
			for cursor < n && outdeg[cursor] != 0 {
				cursor++
			}
			if cursor == n {
				break
			}
			u = cursor
		}
		outdeg[u] = -1
		done++
		for s := g.off[u]; s < g.off[u+1]; s++ {
			if v := g.nbr[s]; o.in(NodeID(u), s) {
				if outdeg[v]--; outdeg[v] == 0 && int(v) < cursor {
					behind = append(behind, v)
				}
			}
		}
	}
	if done < n {
		return false, IsDestinationOriented(o, dest)
	}
	return true, oriented
}

// FindCycle returns one directed cycle as a node sequence (first node
// repeated at the end), or nil if the orientation is acyclic. Useful for
// diagnostics when an acyclicity invariant is violated.
func FindCycle(o *Orientation) []NodeID {
	n := o.g.NumNodes()
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	g := o.g
	var cycle []NodeID
	var dfs func(u NodeID) bool
	dfs = func(u NodeID) bool {
		color[u] = gray
		for s := g.off[u]; s < g.off[u+1]; s++ {
			if o.in(u, s) {
				continue
			}
			switch v := g.nbr[s]; color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a back edge u→v: reconstruct the cycle v..u,v.
				// Walking parents from u yields u..child(v) in reverse, so
				// keep v first and reverse the tail to forward order.
				cycle = append(cycle, v)
				for w := u; w != v; w = parent[w] {
					cycle = append(cycle, w)
				}
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				cycle = append(cycle, v)
				return true
			}
		}
		color[u] = black
		return false
	}
	for u := 0; u < n; u++ {
		if color[u] == white && dfs(NodeID(u)) {
			return cycle
		}
	}
	return nil
}

// CanReach reports whether there is a directed path from u to target.
func CanReach(o *Orientation, u, target NodeID) bool {
	if u == target {
		return true
	}
	g := o.g
	visited := make([]bool, g.NumNodes())
	stack := []NodeID{u}
	visited[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := g.off[x]; s < g.off[x+1]; s++ {
			if o.in(x, s) {
				continue
			}
			if v := g.nbr[s]; v == target {
				return true
			} else if !visited[v] {
				visited[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// NodesReaching reports, per node, whether it has a directed path to
// target (target itself included), computed by a reverse BFS in O(V+E).
// The slice is indexed by node; it is all false if target is not a node.
func NodesReaching(o *Orientation, target NodeID) []bool {
	g := o.g
	reach := make([]bool, g.NumNodes())
	if !g.ValidNode(target) {
		return reach
	}
	reach[target] = true
	queue := make([]NodeID, 1, g.NumNodes())
	queue[0] = target
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for s := g.off[u]; s < g.off[u+1]; s++ {
			if v := g.nbr[s]; o.in(u, s) && !reach[v] {
				reach[v] = true
				queue = append(queue, v)
			}
		}
	}
	return reach
}

// IsDestinationOriented reports whether every node has a directed path to
// dest. This is the goal condition of all link-reversal algorithms.
func IsDestinationOriented(o *Orientation, dest NodeID) bool {
	return !slices.Contains(NodesReaching(o, dest), false)
}

// BadNodes returns the nodes with no directed path to dest, in ascending
// order. |BadNodes| is the n_b parameter of the Θ(n_b²) worst-case bound.
func BadNodes(o *Orientation, dest NodeID) []NodeID {
	reach := NodesReaching(o, dest)
	var bad []NodeID
	for u, ok := range reach {
		if !ok {
			bad = append(bad, NodeID(u))
		}
	}
	return bad
}

// Embedding assigns each node its position in a fixed left-to-right planar
// embedding of the initial DAG, as used by Invariant 4.1: all initial edges
// point from smaller to larger position. Position is a topological index of
// the initial orientation.
type Embedding struct {
	pos []int
}

// NewEmbedding computes a left-to-right embedding of the given orientation.
// It returns an error if the orientation is cyclic (no embedding exists).
func NewEmbedding(o *Orientation) (*Embedding, error) {
	order, ok := TopologicalOrder(o)
	if !ok {
		return nil, fmt.Errorf("graph: cannot embed cyclic orientation")
	}
	pos := make([]int, o.g.NumNodes())
	for i, u := range order {
		pos[u] = i
	}
	return &Embedding{pos: pos}, nil
}

// Pos returns the left-to-right position of u.
func (e *Embedding) Pos(u NodeID) int { return e.pos[u] }

// LeftOf reports whether u is strictly left of v in the embedding.
func (e *Embedding) LeftOf(u, v NodeID) bool { return e.pos[u] < e.pos[v] }

// DOT renders the orientation in Graphviz DOT format. Nodes in highlight are
// drawn with a distinct shape (e.g. the destination).
func DOT(o *Orientation, name string, highlight ...NodeID) string {
	hl := make(map[NodeID]struct{}, len(highlight))
	for _, u := range highlight {
		hl[u] = struct{}{}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=LR;\n")
	ids := make([]int, 0, len(hl))
	for u := range hl {
		ids = append(ids, int(u))
	}
	sort.Ints(ids)
	for _, u := range ids {
		fmt.Fprintf(&b, "  %d [shape=doublecircle];\n", u)
	}
	for _, d := range o.DirectedEdges() {
		fmt.Fprintf(&b, "  %d -> %d;\n", d[0], d[1])
	}
	b.WriteString("}\n")
	return b.String()
}
