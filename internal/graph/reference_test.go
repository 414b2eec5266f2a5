package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// refGraph is the map-based model that FuzzGraphReference checks Graph and
// Orientation against: the edge set keyed by normalized edge, sorted
// adjacency lists, and one head per edge. It follows the definitions
// directly, with no shared code.
type refGraph struct {
	n     int
	index map[Edge]int
	adj   [][]NodeID
	head  map[Edge]NodeID
}

// refBuild adds pairs in order, stopping at the first error: a node out
// of range, a self-loop or a repeated edge.
func refBuild(n int, pairs [][2]NodeID) (*refGraph, error) {
	r := &refGraph{n: n, index: map[Edge]int{}, adj: make([][]NodeID, n), head: map[Edge]NodeID{}}
	for _, p := range pairs {
		a, b := p[0], p[1]
		switch e := NormalizedEdge(a, b); {
		case a < 0 || b < 0 || int(a) >= n || int(b) >= n:
			return nil, fmt.Errorf("%w: edge {%d,%d} in graph of %d nodes", ErrNodeOutOfRange, a, b, n)
		case a == b:
			return nil, fmt.Errorf("%w: node %d", ErrSelfLoop, a)
		case r.has(e):
			return nil, fmt.Errorf("%w: {%d,%d}", ErrDuplicateEdge, e.U, e.V)
		default:
			r.index[e] = len(r.index)
			r.head[e] = e.V
			r.adj[a] = append(r.adj[a], b)
			r.adj[b] = append(r.adj[b], a)
		}
	}
	for _, row := range r.adj {
		slices.Sort(row)
	}
	return r, nil
}

func (r *refGraph) has(e Edge) bool { _, ok := r.index[e]; return ok }

func (r *refGraph) valid(u NodeID) bool { return u >= 0 && int(u) < r.n }

// nbrs returns u's neighbours whose edge points toward u (in) or away.
func (r *refGraph) nbrs(u NodeID, in bool) []NodeID {
	var out []NodeID
	if !r.valid(u) {
		return nil
	}
	for _, v := range r.adj[u] {
		if (r.head[NormalizedEdge(u, v)] == u) == in {
			out = append(out, v)
		}
	}
	return out
}

// acyclic searches for a cycle depth-first.
func (r *refGraph) acyclic() bool {
	state := map[NodeID]int{} // 1 on the stack, 2 done
	var visit func(u NodeID) bool
	visit = func(u NodeID) bool {
		state[u] = 1
		for _, v := range r.nbrs(u, false) {
			if state[v] == 1 || state[v] == 0 && !visit(v) {
				return false
			}
		}
		state[u] = 2
		return true
	}
	for u := range r.n {
		if state[NodeID(u)] == 0 && !visit(NodeID(u)) {
			return false
		}
	}
	return true
}

// bad returns the nodes with no directed path to dest, ascending.
func (r *refGraph) bad(dest NodeID) []NodeID {
	reach := map[NodeID]bool{}
	if r.valid(dest) {
		reach[dest] = true
		for frontier := []NodeID{dest}; len(frontier) > 0; {
			u := frontier[0]
			frontier = frontier[1:]
			for _, v := range r.nbrs(u, true) {
				if !reach[v] {
					reach[v] = true
					frontier = append(frontier, v)
				}
			}
		}
	}
	var out []NodeID
	for u := range r.n {
		if !reach[NodeID(u)] {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// FuzzGraphReference checks the CSR graph and its orientation against
// refGraph: Build's errors, the rows and every slot's twin, every edge
// lookup (out-of-range nodes included), and every orientation query after a fuzzed initial
// orientation and a fuzzed sequence of reversals, DestinationDAG's two
// answers among them.
func FuzzGraphReference(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 2, 3, 3, 4, 1, 3}, []byte{5}, []byte{1, 3, 3, 4})
	f.Add(uint8(5), []byte{1, 2, 3, 4, 2, 1, 5, 3}, []byte{}, []byte{})
	f.Add(uint8(3), []byte{1, 2, 2, 3, 3, 3}, []byte{1}, []byte{2, 3})
	f.Add(uint8(3), []byte{1, 2, 1, 5}, []byte{}, []byte{})
	f.Add(uint8(6), []byte{6, 1, 1, 6, 2, 6, 3, 6, 6, 2}, []byte{255}, []byte{6, 1, 2, 6, 0, 7})
	// The cycle 0→2→1→0 with 0→3: cyclic, yet every node reaches 3.
	f.Add(uint8(4), []byte{1, 2, 2, 3, 1, 4, 1, 3}, []byte{3}, []byte{})
	f.Fuzz(func(t *testing.T, rawN uint8, rawPairs, orient, reversals []byte) {
		n := int(rawN) % 24
		node := func(b byte) NodeID { return NodeID(int(b)%(n+2) - 1) } // -1..n
		var pairs [][2]NodeID
		b := NewBuilder(n)
		for i := 0; i+1 < len(rawPairs); i += 2 {
			p := [2]NodeID{node(rawPairs[i]), node(rawPairs[i+1])}
			pairs = append(pairs, p)
			b.AddEdge(p[0], p[1])
		}
		g, err := b.Build()
		ref, refErr := refBuild(n, pairs)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Build error %v, reference %v", err, refErr)
		}
		for _, sentinel := range []error{ErrNodeOutOfRange, ErrSelfLoop, ErrDuplicateEdge} {
			if errors.Is(err, sentinel) != errors.Is(refErr, sentinel) {
				t.Fatalf("Build error %v, reference %v: class differs", err, refErr)
			}
		}
		if err != nil {
			return
		}

		nodes := make([]NodeID, 0, n+2)
		for u := -1; u <= n; u++ {
			nodes = append(nodes, NodeID(u))
		}
		for _, u := range nodes {
			row := g.Neighbors(u)
			want := []NodeID(nil)
			if ref.valid(u) {
				want = ref.adj[u]
			}
			if !slices.Equal(row, want) || cap(row) != len(row) {
				t.Fatalf("Neighbors(%d) = %v (cap %d), reference %v", u, row, cap(row), want)
			}
			for i, v := range row {
				j := g.TwinAt(u, i)
				if back := g.Neighbors(v); j < 0 || j >= len(back) || back[j] != u || g.EdgeAt(v, j) != g.EdgeAt(u, i) {
					t.Fatalf("TwinAt(%d, %d) = %d: not the edge {%d,%d} in row %v", u, i, j, u, v, back)
				}
			}
			for _, v := range nodes {
				e := NormalizedEdge(u, v)
				i, ok := g.EdgeIndex(u, v)
				wantI, wantOK := ref.index[e]
				if ok != wantOK || ok && i != wantI || g.HasEdge(u, v) != wantOK {
					t.Fatalf("EdgeIndex(%d,%d) = %d,%v, HasEdge %v; reference %d,%v", u, v, i, ok, g.HasEdge(u, v), wantI, wantOK)
				}
				if ok && g.Edges()[i] != e {
					t.Fatalf("Edges()[EdgeIndex(%d,%d)] = %v", u, v, g.Edges()[i])
				}
			}
		}

		// A fuzzed initial orientation, one bit per edge, then fuzzed
		// reversals, each a pair of nodes that may not be an edge.
		head := make([]NodeID, g.NumEdges())
		for i, e := range g.Edges() {
			head[i] = e.V
			if i/8 < len(orient) && orient[i/8]>>(i%8)&1 == 1 {
				head[i] = e.U
			}
			ref.head[e] = head[i]
		}
		o, err := OrientationFromHeads(g, head)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(reversals); i += 2 {
			u, v := node(reversals[i]), node(reversals[i+1])
			e := NormalizedEdge(u, v)
			err := o.Reverse(u, v)
			if errors.Is(err, ErrNoSuchEdge) == ref.has(e) {
				t.Fatalf("Reverse(%d,%d) = %v, reference has edge %v", u, v, err, ref.has(e))
			}
			if err == nil {
				ref.head[e] = e.U + e.V - ref.head[e]
			}
		}
		acyclic := ref.acyclic()
		for _, u := range nodes {
			in, out := ref.nbrs(u, true), ref.nbrs(u, false)
			if got := o.InNeighbors(u); !slices.Equal(got, in) || (got == nil) != (in == nil) {
				t.Fatalf("InNeighbors(%d) = %v, reference %v", u, got, in)
			}
			if got := o.OutNeighbors(u); !slices.Equal(got, out) || (got == nil) != (out == nil) {
				t.Fatalf("OutNeighbors(%d) = %v, reference %v", u, got, out)
			}
			if o.InDegree(u) != len(in) {
				t.Fatalf("InDegree(%d) = %d, reference %d", u, o.InDegree(u), len(in))
			}
			if sink := ref.valid(u) && len(out) == 0; o.IsSink(u) != sink {
				t.Fatalf("IsSink(%d) = %v, reference %v", u, o.IsSink(u), sink)
			}
			for _, v := range nodes {
				e := NormalizedEdge(u, v)
				d, ok := o.Dir(u, v)
				want := Direction(0)
				if ref.has(e) {
					want = Out
					if ref.head[e] == u {
						want = In
					}
				}
				if ok != ref.has(e) || d != want {
					t.Fatalf("Dir(%d,%d) = %v,%v, reference %v", u, v, d, ok, want)
				}
				if got := o.PointsTo(u, v); got != (ref.has(e) && ref.head[e] == v) {
					t.Fatalf("PointsTo(%d,%d) = %v", u, v, got)
				}
			}
			bad := ref.bad(u)
			if got := BadNodes(o, u); !slices.Equal(got, bad) {
				t.Fatalf("BadNodes(%d) = %v, reference %v", u, got, bad)
			}
			if got := IsDestinationOriented(o, u); got != (len(bad) == 0) {
				t.Fatalf("IsDestinationOriented(%d) = %v, reference bad nodes %v", u, got, bad)
			}
			if a, d := DestinationDAG(o, u); a != acyclic || d != (len(bad) == 0) {
				t.Fatalf("DestinationDAG(%d) = %v,%v, reference acyclic %v, bad nodes %v on %v", u, a, d, acyclic, bad, o)
			}
		}
		if got := IsAcyclic(o); got != acyclic {
			t.Fatalf("IsAcyclic = %v, reference %v on %v", got, acyclic, o)
		}
	})
}
