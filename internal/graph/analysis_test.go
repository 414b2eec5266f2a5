package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestIsAcyclicInitial(t *testing.T) {
	// The default low→high orientation of any graph is acyclic.
	g := mustGraph(t, 5,
		[2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3}, [2]NodeID{3, 4},
		[2]NodeID{0, 2}, [2]NodeID{1, 4})
	o := NewOrientation(g)
	if !IsAcyclic(o) {
		t.Error("default orientation must be acyclic")
	}
}

func TestIsAcyclicDetectsCycle(t *testing.T) {
	g := mustGraph(t, 3, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{0, 2})
	o, err := OrientationFromDirected(g, [][2]NodeID{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if IsAcyclic(o) {
		t.Error("triangle cycle not detected")
	}
	cycle := FindCycle(o)
	if cycle == nil {
		t.Fatal("FindCycle returned nil on cyclic orientation")
	}
	if cycle[0] != cycle[len(cycle)-1] {
		t.Errorf("cycle not closed: %v", cycle)
	}
	// Every consecutive pair must be a directed edge.
	for i := 0; i+1 < len(cycle); i++ {
		if !o.PointsTo(cycle[i], cycle[i+1]) {
			t.Errorf("cycle edge %d→%d not directed that way", cycle[i], cycle[i+1])
		}
	}
}

func TestFindCycleNilOnDAG(t *testing.T) {
	g := chain(t, 5)
	if c := FindCycle(NewOrientation(g)); c != nil {
		t.Errorf("FindCycle on DAG = %v, want nil", c)
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := mustGraph(t, 4, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3}, [2]NodeID{0, 3})
	o := NewOrientation(g)
	order, ok := TopologicalOrder(o)
	if !ok {
		t.Fatal("expected acyclic")
	}
	pos := make(map[NodeID]int, len(order))
	for i, u := range order {
		pos[u] = i
	}
	for _, d := range o.DirectedEdges() {
		if pos[d[0]] >= pos[d[1]] {
			t.Errorf("edge %d→%d violates topological order %v", d[0], d[1], order)
		}
	}
}

func TestCanReachAndDestinationOriented(t *testing.T) {
	// 0→1→2 with destination 2: oriented. Reverse 1→2 and 2 becomes
	// unreachable from 0 and 1.
	g := chain(t, 3)
	o := NewOrientation(g)
	if !IsDestinationOriented(o, 2) {
		t.Error("chain should be destination-oriented toward its sink")
	}
	if err := o.Reverse(1, 2); err != nil {
		t.Fatal(err)
	}
	if IsDestinationOriented(o, 2) {
		t.Error("after reversal, graph must not be destination-oriented")
	}
	if CanReach(o, 0, 2) {
		t.Error("0 must not reach 2")
	}
	if !CanReach(o, 2, 1) {
		t.Error("2 should reach 1 after the reversal")
	}
	if CanReach(o, 2, 0) {
		t.Error("2 must not reach 0 (edge 0→1 still points away)")
	}
	if !CanReach(o, 1, 1) {
		t.Error("a node reaches itself")
	}
	bad := BadNodes(o, 2)
	if len(bad) != 2 || bad[0] != 0 || bad[1] != 1 {
		t.Errorf("BadNodes = %v, want [0 1]", bad)
	}
}

func TestNodesReaching(t *testing.T) {
	g := mustGraph(t, 4, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3})
	o := NewOrientation(g)
	if reach := NodesReaching(o, 3); !slices.Equal(reach, []bool{true, true, true, true}) {
		t.Errorf("all 4 nodes should reach 3 in a directed chain, got %v", reach)
	}
	if reach := NodesReaching(o, 0); !slices.Equal(reach, []bool{true, false, false, false}) {
		t.Errorf("only 0 reaches 0, got %v", reach)
	}
	if reach := NodesReaching(o, 4); !slices.Equal(reach, make([]bool, 4)) {
		t.Errorf("no node reaches a non-node, got %v", reach)
	}
}

func TestEmbedding(t *testing.T) {
	g := mustGraph(t, 4, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{2, 3})
	o := NewOrientation(g)
	emb, err := NewEmbedding(o)
	if err != nil {
		t.Fatal(err)
	}
	// All initial edges point left→right.
	for _, d := range o.DirectedEdges() {
		if !emb.LeftOf(d[0], d[1]) {
			t.Errorf("initial edge %d→%d not left→right (pos %d vs %d)",
				d[0], d[1], emb.Pos(d[0]), emb.Pos(d[1]))
		}
	}
	// Cyclic orientation has no embedding.
	tri := mustGraph(t, 3, [2]NodeID{0, 1}, [2]NodeID{1, 2}, [2]NodeID{0, 2})
	cyc, err := OrientationFromDirected(tri, [][2]NodeID{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEmbedding(cyc); err == nil {
		t.Error("embedding of cyclic orientation must fail")
	}
}

func TestDOT(t *testing.T) {
	g := chain(t, 3)
	o := NewOrientation(g)
	dot := DOT(o, "test", 2)
	for _, want := range []string{"digraph", "0 -> 1", "1 -> 2", "2 [shape=doublecircle]"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestAcyclicityRandomizedAgainstFindCycle(t *testing.T) {
	// Property: IsAcyclic agrees with FindCycle == nil across random
	// orientations of random graphs.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		b := NewBuilder(n)
		added := make(map[Edge]bool)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			e := NormalizedEdge(NodeID(u), NodeID(v))
			if added[e] {
				continue
			}
			added[e] = true
			b.AddEdge(e.U, e.V)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		o := NewOrientation(g)
		// Random reversals.
		edges := g.Edges()
		for s := 0; s < n && len(edges) > 0; s++ {
			e := edges[rng.Intn(len(edges))]
			if err := o.Reverse(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		acyclic := IsAcyclic(o)
		cycle := FindCycle(o)
		if acyclic && cycle != nil {
			t.Fatalf("trial %d: IsAcyclic=true but FindCycle=%v", trial, cycle)
		}
		if !acyclic && cycle == nil {
			t.Fatalf("trial %d: IsAcyclic=false but no cycle found", trial)
		}
	}
}
