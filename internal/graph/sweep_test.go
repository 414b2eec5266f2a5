package graph_test

import (
	"testing"

	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// TestDestinationDAGSweepOrder checks DestinationDAG against IsAcyclic and
// IsDestinationOriented on orientations whose nodes become ready both ahead
// of its forward sweep and behind it. On Grid(40, 40)'s initial orientation
// and on BadChain every edge points toward higher IDs, so the only sink is
// the last node and every other node becomes ready behind the sweep; on the
// grid's full reversal every node becomes ready ahead of it; a seeded random
// DAG mixes both. Each base is also checked with single edges flipped, a
// spread of them, which on the random DAG closes cycles.
func TestDestinationDAGSweepOrder(t *testing.T) {
	grid := workload.Grid(40, 40)
	lower := make([]graph.NodeID, grid.Graph.NumEdges())
	for i, e := range grid.Graph.Edges() {
		lower[i] = e.U
	}
	reversed, err := graph.OrientationFromHeads(grid.Graph, lower)
	if err != nil {
		t.Fatal(err)
	}
	bases := []struct {
		name string
		o    *graph.Orientation
	}{
		{"grid-40x40", grid.Initial},
		{"grid-40x40-reversed", reversed},
		{"bad-chain-200", workload.BadChain(200).Initial},
		{"random-dag", workload.RandomConnected(300, 0.02, 7).Initial},
	}
	cyclic, oriented := 0, 0
	check := func(name string, o *graph.Orientation) {
		t.Helper()
		n := graph.NodeID(o.Graph().NumNodes())
		for _, dest := range []graph.NodeID{0, n / 2, n - 1} {
			a, d := graph.DestinationDAG(o, dest)
			wantA, wantD := graph.IsAcyclic(o), graph.IsDestinationOriented(o, dest)
			if a != wantA || d != wantD {
				t.Fatalf("%s: DestinationDAG(%d) = %v,%v, IsAcyclic %v, IsDestinationOriented %v", name, dest, a, d, wantA, wantD)
			}
			if !a {
				cyclic++
			}
			if a && d {
				oriented++
			}
		}
	}
	for _, b := range bases {
		check(b.name, b.o)
		edges := b.o.Graph().Edges()
		for i := 0; i < len(edges); i += max(1, len(edges)/150) {
			o := b.o.Clone()
			if err := o.Reverse(edges[i].U, edges[i].V); err != nil {
				t.Fatal(err)
			}
			check(b.name+"-flipped", o)
		}
	}
	if cyclic == 0 || oriented == 0 {
		t.Fatalf("the cases hold %d cyclic and %d destination-oriented checks; want some of each", cyclic, oriented)
	}
	t.Logf("%d cyclic, %d acyclic and destination-oriented", cyclic, oriented)
}
