package graph

import (
	"errors"
	"testing"
)

func mustGraph(t *testing.T, n int, edges ...[2]NodeID) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	return g
}

func TestNormalizedEdge(t *testing.T) {
	tests := []struct {
		name string
		a, b NodeID
		want Edge
	}{
		{name: "ordered", a: 1, b: 2, want: Edge{U: 1, V: 2}},
		{name: "reversed", a: 5, b: 3, want: Edge{U: 3, V: 5}},
		{name: "zero", a: 0, b: 7, want: Edge{U: 0, V: 7}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NormalizedEdge(tt.a, tt.b); got != tt.want {
				t.Errorf("NormalizedEdge(%d,%d) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (*Graph, error)
		wantErr error
	}{
		{
			name:    "out of range",
			build:   func() (*Graph, error) { return NewBuilder(2).AddEdge(0, 5).Build() },
			wantErr: ErrNodeOutOfRange,
		},
		{
			name:    "negative node",
			build:   func() (*Graph, error) { return NewBuilder(2).AddEdge(-1, 0).Build() },
			wantErr: ErrNodeOutOfRange,
		},
		{
			name:    "self loop",
			build:   func() (*Graph, error) { return NewBuilder(2).AddEdge(1, 1).Build() },
			wantErr: ErrSelfLoop,
		},
		{
			name:    "duplicate",
			build:   func() (*Graph, error) { return NewBuilder(3).AddEdge(0, 1).AddEdge(1, 0).Build() },
			wantErr: ErrDuplicateEdge,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("got error %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestBuilderStickyError(t *testing.T) {
	b := NewBuilder(3).AddEdge(0, 9) // out of range
	b.AddEdge(0, 1)                  // valid, but must be ignored
	if _, err := b.Build(); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("sticky error lost: %v", err)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := mustGraph(t, 4, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3}, [2]NodeID{0, 2})
	if got := g.NumNodes(); got != 4 {
		t.Errorf("NumNodes = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if !g.HasEdge(2, 0) {
		t.Error("HasEdge(2,0) = false, want true (undirected)")
	}
	if g.HasEdge(0, 3) {
		t.Error("HasEdge(0,3) = true, want false")
	}
	wantNbrs := []NodeID{0, 1, 3}
	got := g.Neighbors(2)
	if len(got) != len(wantNbrs) {
		t.Fatalf("Neighbors(2) = %v, want %v", got, wantNbrs)
	}
	for i := range got {
		if got[i] != wantNbrs[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", got, wantNbrs)
		}
	}
	if d := g.Degree(2); d != 3 {
		t.Errorf("Degree(2) = %d, want 3", d)
	}
	if g.ValidNode(4) || !g.ValidNode(0) {
		t.Error("ValidNode range check failed")
	}
}

func TestCopyNeighborsIsPrivate(t *testing.T) {
	g := mustGraph(t, 3, [2]NodeID{0, 1}, [2]NodeID{0, 2})
	cp := g.CopyNeighbors(0)
	cp[0] = 99
	if g.Neighbors(0)[0] == 99 {
		t.Error("CopyNeighbors returned a shared slice")
	}
}

func TestConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{name: "single node", g: mustGraph(t, 1), want: true},
		{name: "empty graph", g: mustGraph(t, 0), want: true},
		{name: "path", g: mustGraph(t, 3, [2]NodeID{0, 1}, [2]NodeID{1, 2}), want: true},
		{name: "disconnected", g: mustGraph(t, 4, [2]NodeID{0, 1}, [2]NodeID{2, 3}), want: false},
		{name: "isolated node", g: mustGraph(t, 3, [2]NodeID{0, 1}), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Connected(); got != tt.want {
				t.Errorf("Connected = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEdgesReturnsCopy(t *testing.T) {
	g := mustGraph(t, 3, [2]NodeID{0, 1}, [2]NodeID{1, 2})
	es := g.Edges()
	es[0] = Edge{U: 9, V: 9}
	if g.Edges()[0] == (Edge{U: 9, V: 9}) {
		t.Error("Edges returned internal slice")
	}
}

// TestBuilderReuseLeavesGraph adds edges to a Builder after it has built a
// graph, which shares the recorded edges: the first graph must keep its
// edges, and the second must have them all.
func TestBuilderReuseLeavesGraph(t *testing.T) {
	b := NewBuilder(4)
	for i := range 3 {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	first := b.MustBuild()
	want := first.Edges()
	second := b.AddEdge(0, 3).AddEdge(0, 2).MustBuild()
	if got := first.Edges(); len(got) != 3 || got[0] != want[0] || got[2] != want[2] || first.Degree(0) != 1 {
		t.Errorf("first graph changed after AddEdge: edges %v, degree(0) %d", got, first.Degree(0))
	}
	if second.NumEdges() != 5 || second.Degree(0) != 3 {
		t.Errorf("second graph: %d edges, degree(0) %d; want 5 and 3", second.NumEdges(), second.Degree(0))
	}
}

func TestEdgeIndexDense(t *testing.T) {
	g := mustGraph(t, 4, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3})
	seen := make(map[int]bool)
	for _, e := range g.Edges() {
		i, ok := g.EdgeIndex(e.U, e.V)
		if !ok {
			t.Fatalf("EdgeIndex(%v) missing", e)
		}
		if i < 0 || i >= g.NumEdges() {
			t.Fatalf("EdgeIndex(%v) = %d out of range", e, i)
		}
		if seen[i] {
			t.Fatalf("EdgeIndex(%v) = %d duplicated", e, i)
		}
		seen[i] = true
	}
	if _, ok := g.EdgeIndex(0, 3); ok {
		t.Error("EdgeIndex for non-edge returned ok")
	}
}
