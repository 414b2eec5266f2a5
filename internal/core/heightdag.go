package core

import (
	"fmt"
	"slices"

	"linkreversal/internal/graph"
)

// PairHeight returns u's initial Gafni–Bertsekas height (0, −pos(u), u),
// where pos is the left-to-right embedding of G'_init. Edges point right,
// toward smaller b, so these heights induce exactly G'_init.
func (in *Init) PairHeight(u graph.NodeID) Height {
	return Height{A: 0, B: -in.emb.Pos(u), ID: u}
}

// PairStep returns the height a sink of height h moves to under the
// Gafni–Bertsekas pair rule. The sink has deg ≥ 1 neighbours, and nbr(i)
// returns the height of the i-th:
//
//	a := 1 + min{ a[v] }
//	b := min{ b[v] : a[v] = a } − 1 when such a neighbour exists, else b is kept.
func PairStep(h Height, deg int, nbr func(i int) Height) Height {
	minA := nbr(0).A
	for i := 1; i < deg; i++ {
		minA = min(minA, nbr(i).A)
	}
	next := Height{A: minA + 1, B: h.B, ID: h.ID}
	found := false
	for i := range deg {
		if v := nbr(i); v.A == next.A && (!found || v.B-1 < next.B) {
			next.B = v.B - 1
			found = true
		}
	}
	return next
}

// HeightDAG is a graph with a mutable link set, oriented by pair heights:
// the link {u,v} points from the higher to the lower endpoint. Heights are
// a total order, so the orientation is acyclic whatever links come and go,
// and a new link gets its direction from the heights it joins. Stabilize
// repairs the orientation with PairStep toward the destination of the Init
// the DAG was built from.
//
// Each node keeps an ascending neighbour row. A link change replaces the
// two rows it touches and never edits a row in place, so a row returned by
// Neighbors stays as it was. A HeightDAG is not safe for concurrent use.
type HeightDAG struct {
	dest    graph.NodeID
	rows    [][]graph.NodeID
	heights []Height
	steps   int
	// comp caches Component until a link change; nil means not computed.
	comp []graph.NodeID
}

// NewHeightDAG starts a HeightDAG on in's graph and destination with the
// initial pair heights, so its orientation equals G'_init.
func NewHeightDAG(in *Init) *HeightDAG {
	n := in.g.NumNodes()
	d := &HeightDAG{dest: in.dest, rows: make([][]graph.NodeID, n), heights: make([]Height, n)}
	for u := range n {
		id := graph.NodeID(u)
		d.rows[u] = in.g.Neighbors(id)
		d.heights[u] = in.PairHeight(id)
	}
	return d
}

// NumNodes returns the number of nodes.
func (d *HeightDAG) NumNodes() int { return len(d.rows) }

// Destination returns the node the DAG is stabilized toward.
func (d *HeightDAG) Destination() graph.NodeID { return d.dest }

// Height returns u's current height.
func (d *HeightDAG) Height(u graph.NodeID) Height { return d.heights[u] }

// Steps returns the number of PairStep updates applied since construction.
func (d *HeightDAG) Steps() int { return d.steps }

// Neighbors returns u's current neighbours in ascending order. The row is
// shared and must not be modified.
func (d *HeightDAG) Neighbors(u graph.NodeID) []graph.NodeID { return d.rows[u] }

// HasLink reports whether the link {u,v} is present.
func (d *HeightDAG) HasLink(u, v graph.NodeID) bool {
	_, ok := slices.BinarySearch(d.rows[u], v)
	return ok
}

// AddLink inserts the link {u,v} (u ≠ v) and reports whether it was
// absent.
func (d *HeightDAG) AddLink(u, v graph.NodeID) bool {
	if d.HasLink(u, v) {
		return false
	}
	d.rows[u] = withLink(d.rows[u], v)
	d.rows[v] = withLink(d.rows[v], u)
	d.comp = nil
	return true
}

// RemoveLink deletes the link {u,v} and reports whether it was present.
func (d *HeightDAG) RemoveLink(u, v graph.NodeID) bool {
	if !d.HasLink(u, v) {
		return false
	}
	d.rows[u] = withoutLink(d.rows[u], v)
	d.rows[v] = withoutLink(d.rows[v], u)
	d.comp = nil
	return true
}

// withLink returns a copy of the ascending row with v inserted.
func withLink(row []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i, _ := slices.BinarySearch(row, v)
	return slices.Insert(slices.Clone(row), i, v)
}

// withoutLink returns a copy of the ascending row without v.
func withoutLink(row []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i, _ := slices.BinarySearch(row, v)
	return slices.Delete(slices.Clone(row), i, i+1)
}

// Component returns the members of the destination's undirected component
// in ascending order. The slice is computed once per link set and shared
// until the next link change; it must not be modified.
func (d *HeightDAG) Component() []graph.NodeID {
	if d.comp != nil {
		return d.comp
	}
	seen := make([]bool, len(d.rows))
	seen[d.dest] = true
	comp := []graph.NodeID{d.dest}
	for i := 0; i < len(comp); i++ {
		for _, v := range d.rows[comp[i]] {
			if !seen[v] {
				seen[v] = true
				comp = append(comp, v)
			}
		}
	}
	slices.Sort(comp)
	d.comp = comp
	return comp
}

// NextHop returns u's lowest neighbour and true when that neighbour is
// lower than u, the hop of a walk down the heights; otherwise it reports
// false.
func (d *HeightDAG) NextHop(u graph.NodeID) (graph.NodeID, bool) {
	best := u
	for _, v := range d.rows[u] {
		if d.heights[v].Less(d.heights[best]) {
			best = v
		}
	}
	return best, best != u
}

// sink reports whether u is a node other than the destination with no
// lower neighbour. Stabilize asks only about members of the destination's
// component, so a sink has a link for PairStep to read.
func (d *HeightDAG) sink(u graph.NodeID) bool {
	if u == d.dest {
		return false
	}
	for _, v := range d.rows[u] {
		if d.heights[v].Less(d.heights[u]) {
			return false
		}
	}
	return true
}

// Stabilize runs the pair rule over the destination's component. Each
// sweep visits the component in ascending order and applies PairStep to
// every sink other than the destination, until a sweep finds none; it
// returns the number of steps taken. Nodes cut off from the destination
// keep their heights. The rule terminates on the component: its budget of
// 100·m²+100 steps for m members is exhausted only by a bug.
func (d *HeightDAG) Stabilize() (int, error) {
	members := d.Component()
	m := len(members)
	budget := 100*m*m + 100
	steps := 0
	for {
		progressed := false
		for _, u := range members {
			if !d.sink(u) {
				continue
			}
			row := d.rows[u]
			d.heights[u] = PairStep(d.heights[u], len(row), func(j int) Height { return d.heights[row[j]] })
			d.steps++
			steps++
			progressed = true
			if steps > budget {
				return steps, fmt.Errorf("core: stabilize toward %d exceeded %d steps", d.dest, budget)
			}
		}
		if !progressed {
			return steps, nil
		}
	}
}

// Path walks from src to the lowest lower neighbour, hop by hop, until it
// reaches the destination or a node with no lower neighbour, and reports
// whether it reached the destination. Heights strictly decrease along the
// walk, so it is loop-free.
func (d *HeightDAG) Path(src graph.NodeID) ([]graph.NodeID, bool) {
	path := []graph.NodeID{src}
	for u := src; u != d.dest; {
		v, ok := d.NextHop(u)
		if !ok {
			return path, false
		}
		path = append(path, v)
		u = v
	}
	return path, true
}

// Acyclic reports whether the derived orientation has no directed cycle,
// by depth-first search along the links. Heights are a total order, so it
// always holds; the search checks that instead of trusting it.
func (d *HeightDAG) Acyclic() bool {
	const white, gray, black = 0, 1, 2
	color := make([]int, len(d.rows))
	var dfs func(u graph.NodeID) bool
	dfs = func(u graph.NodeID) bool {
		color[u] = gray
		for _, v := range d.rows[u] {
			if !d.heights[v].Less(d.heights[u]) {
				continue
			}
			if color[v] == gray || color[v] == white && !dfs(v) {
				return false
			}
		}
		color[u] = black
		return true
	}
	for u := range d.rows {
		if color[u] == white && !dfs(graph.NodeID(u)) {
			return false
		}
	}
	return true
}
