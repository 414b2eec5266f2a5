package core_test

import (
	"slices"
	"testing"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/sched"
	"linkreversal/internal/workload"
)

func TestPairStep(t *testing.T) {
	nbrs := func(hs ...core.Height) func(int) core.Height {
		return func(i int) core.Height { return hs[i] }
	}
	tests := []struct {
		name string
		h    core.Height
		nbr  []core.Height
		want core.Height
	}{
		{
			name: "b kept when no neighbour sits at the new a",
			h:    core.Height{A: 0, B: -3, ID: 5},
			nbr:  []core.Height{{A: 0, B: -1, ID: 1}, {A: 2, B: 0, ID: 2}},
			want: core.Height{A: 1, B: -3, ID: 5},
		},
		{
			name: "b below the lowest neighbour at the new a",
			h:    core.Height{A: 0, B: 4, ID: 5},
			nbr:  []core.Height{{A: 1, B: -2, ID: 1}, {A: 0, B: 5, ID: 2}, {A: 1, B: 7, ID: 3}},
			want: core.Height{A: 1, B: -3, ID: 5},
		},
		{
			name: "b may rise",
			h:    core.Height{A: 3, B: -9, ID: 0},
			nbr:  []core.Height{{A: 3, B: 2, ID: 4}, {A: 4, B: 6, ID: 7}},
			want: core.Height{A: 4, B: 5, ID: 0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := core.PairStep(tt.h, len(tt.nbr), nbrs(tt.nbr...)); got != tt.want {
				t.Errorf("PairStep = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestHeightDAGStabilizeIsGBPair checks the DAG's sweeps against the
// paper's automaton: stabilizing from G'_init ends at GBPair's final
// heights, under every scheduler, after the same number of steps, with
// every node routing to the destination.
func TestHeightDAGStabilizeIsGBPair(t *testing.T) {
	topos := append(topologies(), workload.AlternatingChain(7), workload.Hypercube(4, 2))
	for _, topo := range topos {
		t.Run(topo.Name, func(t *testing.T) {
			in := topo.MustInit()
			dag := core.NewHeightDAG(in)
			if dag.Destination() != topo.Dest {
				t.Fatalf("Destination() = %d, want %d", dag.Destination(), topo.Dest)
			}
			n := topo.Graph.NumNodes()
			if got := len(dag.Component()); got != n {
				t.Fatalf("destination's component has %d members, want all %d", got, n)
			}
			steps, err := dag.Stabilize()
			if err != nil {
				t.Fatal(err)
			}
			if steps != dag.Steps() {
				t.Errorf("Stabilize returned %d steps, Steps() = %d", steps, dag.Steps())
			}
			for _, s := range schedulers() {
				gb := core.NewGBPair(in)
				res, err := sched.Run(gb, s, sched.Options{})
				if err != nil || !res.Quiesced {
					t.Fatalf("%s: GBPair run: quiesced=%v err=%v", s.Name(), res.Quiesced, err)
				}
				if gb.Steps() != steps {
					t.Errorf("%s: GBPair took %d steps, DAG %d", s.Name(), gb.Steps(), steps)
				}
				for u := range n {
					id := graph.NodeID(u)
					if got, want := dag.Height(id), gb.Height(id); got != want {
						t.Fatalf("%s: height of %d = %v, GBPair %v", s.Name(), u, got, want)
					}
				}
			}
			if !dag.Acyclic() {
				t.Error("stabilized DAG has a cycle")
			}
			for u := range n {
				if path, ok := dag.Path(graph.NodeID(u)); !ok {
					t.Errorf("no route from %d: walk stopped at %d", u, path[len(path)-1])
				}
			}
		})
	}
}

// TestHeightDAGLinks pins the link operations: each reports whether it
// changed anything, rows stay ascending, a row handed out earlier is never
// edited in place, and the destination's component follows the links, on
// either side of a cut.
func TestHeightDAGLinks(t *testing.T) {
	topo := workload.GoodChain(4)
	all := []graph.NodeID{0, 1, 2, 3}
	for _, tt := range []struct {
		dest graph.NodeID
		comp []graph.NodeID // after the link changes below
	}{
		{dest: 0, comp: []graph.NodeID{0}},
		{dest: 3, comp: []graph.NodeID{1, 2, 3}},
	} {
		in, err := core.NewInit(topo.Graph, topo.Initial, tt.dest)
		if err != nil {
			t.Fatal(err)
		}
		dag := core.NewHeightDAG(in)
		held := dag.Neighbors(1)
		if !slices.Equal(held, []graph.NodeID{0, 2}) {
			t.Fatalf("Neighbors(1) = %v, want [0 2]", held)
		}
		if dag.AddLink(0, 1) || dag.RemoveLink(0, 2) {
			t.Error("AddLink of a present link or RemoveLink of an absent one reported a change")
		}
		if !dag.AddLink(3, 1) || !dag.HasLink(1, 3) || !dag.HasLink(3, 1) {
			t.Fatal("AddLink(3, 1) did not add the link both ways")
		}
		if got := dag.Neighbors(1); !slices.Equal(got, []graph.NodeID{0, 2, 3}) {
			t.Errorf("Neighbors(1) after AddLink = %v, want [0 2 3]", got)
		}
		if got := dag.Component(); !slices.Equal(got, all) {
			t.Errorf("dest %d: Component() = %v, want %v", tt.dest, got, all)
		}
		if !dag.RemoveLink(1, 0) || dag.HasLink(0, 1) {
			t.Fatal("RemoveLink(1, 0) did not remove the link")
		}
		if got := dag.Neighbors(1); !slices.Equal(got, []graph.NodeID{2, 3}) {
			t.Errorf("Neighbors(1) after RemoveLink = %v, want [2 3]", got)
		}
		if !slices.Equal(held, []graph.NodeID{0, 2}) {
			t.Errorf("held row changed to %v", held)
		}
		if got := dag.Component(); !slices.Equal(got, tt.comp) {
			t.Errorf("dest %d: Component() after RemoveLink = %v, want %v", tt.dest, got, tt.comp)
		}
		if !dag.AddLink(0, 1) {
			t.Fatal("AddLink(0, 1) did not restore the link")
		}
		if got := dag.Component(); !slices.Equal(got, all) {
			t.Errorf("dest %d: Component() after the heal = %v, want %v", tt.dest, got, all)
		}
	}
}
