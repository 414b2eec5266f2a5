package workload

import (
	"strings"
	"testing"
	"testing/quick"

	"linkreversal/internal/graph"
)

func TestBadChainShape(t *testing.T) {
	topo := BadChain(5)
	if got := topo.Graph.NumNodes(); got != 6 {
		t.Errorf("nodes = %d, want 6", got)
	}
	if got := topo.Graph.NumEdges(); got != 5 {
		t.Errorf("edges = %d, want 5", got)
	}
	// Every non-destination node must be bad (no path to 0).
	bad := graph.BadNodes(topo.Initial, topo.Dest)
	if len(bad) != 5 {
		t.Errorf("bad nodes = %v, want all 5 non-destination nodes", bad)
	}
	if !graph.IsAcyclic(topo.Initial) {
		t.Error("initial orientation must be a DAG")
	}
}

func TestGoodChainAlreadyOriented(t *testing.T) {
	topo := GoodChain(7)
	if !graph.IsDestinationOriented(topo.Initial, topo.Dest) {
		t.Error("good chain must start destination-oriented")
	}
}

func TestStarShape(t *testing.T) {
	topo := Star(9)
	if topo.Graph.Degree(0) != 8 {
		t.Errorf("hub degree = %d, want 8", topo.Graph.Degree(0))
	}
	for leaf := 1; leaf < 9; leaf++ {
		if !topo.Initial.IsSink(graph.NodeID(leaf)) {
			t.Errorf("leaf %d should start as a sink", leaf)
		}
	}
}

func TestLadderShape(t *testing.T) {
	topo := Ladder(4)
	if got := topo.Graph.NumNodes(); got != 8 {
		t.Errorf("nodes = %d, want 8", got)
	}
	// 2(k-1) rail edges + k rungs = 2*3 + 4 = 10.
	if got := topo.Graph.NumEdges(); got != 10 {
		t.Errorf("edges = %d, want 10", got)
	}
	if !graph.IsAcyclic(topo.Initial) {
		t.Error("ladder initial orientation must be a DAG")
	}
	if !topo.Graph.Connected() {
		t.Error("ladder must be connected")
	}
}

func TestGridShape(t *testing.T) {
	topo := Grid(3, 5)
	if got := topo.Graph.NumNodes(); got != 15 {
		t.Errorf("nodes = %d, want 15", got)
	}
	// Horizontal: 3*4 = 12; vertical: 2*5 = 10.
	if got := topo.Graph.NumEdges(); got != 22 {
		t.Errorf("edges = %d, want 22", got)
	}
	if !topo.Graph.Connected() {
		t.Error("grid must be connected")
	}
}

func TestGeneratorsProduceValidInits(t *testing.T) {
	topos := []*Topology{
		BadChain(4), GoodChain(4), Star(5), Ladder(3), Grid(2, 3),
		Tree(10, 1), Ring(6, 2),
		LayeredDAG(3, 3, 0.5, 1), RandomConnected(8, 0.3, 1),
	}
	for _, topo := range topos {
		t.Run(topo.Name, func(t *testing.T) {
			if _, err := topo.Init(); err != nil {
				t.Fatalf("Init: %v", err)
			}
			if !graph.IsAcyclic(topo.Initial) {
				t.Error("initial orientation must be acyclic")
			}
			if !topo.Graph.ValidNode(topo.Dest) {
				t.Error("destination out of range")
			}
			if !topo.Graph.Connected() {
				t.Error("generated graph must be connected")
			}
		})
	}
}

func TestLayeredDAGDeterministicPerSeed(t *testing.T) {
	a := LayeredDAG(4, 3, 0.4, 77)
	b := LayeredDAG(4, 3, 0.4, 77)
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	if !a.Initial.Equal(b.Initial) {
		t.Error("same seed produced different orientations")
	}
	c := LayeredDAG(4, 3, 0.4, 78)
	if a.Graph.NumEdges() == c.Graph.NumEdges() && a.Initial.Equal(c.Initial) {
		t.Log("different seeds produced identical topology (possible, but suspicious)")
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	prop := func(rawN uint8, rawP uint8, seed int64) bool {
		n := 2 + int(rawN)%30
		p := float64(rawP) / 255.0
		topo := RandomConnected(n, p, seed)
		return topo.Graph.Connected() &&
			graph.IsAcyclic(topo.Initial) &&
			topo.Graph.NumNodes() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTreeHasExactlyNMinusOneEdges(t *testing.T) {
	for _, n := range []int{2, 5, 17} {
		topo := Tree(n, 3)
		if got := topo.Graph.NumEdges(); got != n-1 {
			t.Errorf("tree(%d) edges = %d, want %d", n, got, n-1)
		}
		if !topo.Graph.Connected() {
			t.Errorf("tree(%d) not connected", n)
		}
	}
}

func TestRingIsCycleGraph(t *testing.T) {
	topo := Ring(8, 1)
	if topo.Graph.NumEdges() != 8 {
		t.Errorf("ring edges = %d, want 8", topo.Graph.NumEdges())
	}
	for u := 0; u < 8; u++ {
		if d := topo.Graph.Degree(graph.NodeID(u)); d != 2 {
			t.Errorf("node %d degree = %d, want 2", u, d)
		}
	}
}

func TestTopologyNames(t *testing.T) {
	tests := []struct {
		topo *Topology
		want string
	}{
		{topo: BadChain(3), want: "bad-chain-3"},
		{topo: Grid(2, 2), want: "grid-2x2"},
		{topo: Star(4), want: "star-4"},
	}
	for _, tt := range tests {
		if !strings.HasPrefix(tt.topo.Name, tt.want) {
			t.Errorf("name %q, want prefix %q", tt.topo.Name, tt.want)
		}
	}
}

func TestDegenerateSizes(t *testing.T) {
	// Generators must not panic on tiny inputs.
	for _, topo := range []*Topology{
		Ladder(0), Ring(2, 1), LayeredDAG(1, 0, 0.5, 1), RandomConnected(0, 0.5, 1), Tree(1, 1),
	} {
		if topo.Graph == nil {
			t.Errorf("%s: nil graph", topo.Name)
		}
	}
}

// TestByName builds every listed name, case-insensitively, at sizes 6 and 1,
// and rejects an unknown name and every size below 1.
func TestByName(t *testing.T) {
	for _, name := range strings.Split(Names, ", ") {
		for _, n := range []int{6, 1} {
			topo, err := ByName(strings.ToUpper(name), n, 0.3, 1)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if _, err := topo.Init(); err != nil {
				t.Errorf("%s n=%d: %v", name, n, err)
			}
		}
		for _, n := range []int{0, -1} {
			if _, err := ByName(name, n, 0.3, 1); err == nil {
				t.Errorf("%s n=%d accepted", name, n)
			}
		}
	}
	if topo, err := ByName("grid", 3, 0, 1); err != nil || topo.Name != "grid-3x3" {
		t.Errorf("grid 3 = %v, %v; want grid-3x3", topo, err)
	}
	if _, err := ByName("nope", 6, 0.3, 1); err == nil {
		t.Error("unknown topology accepted")
	}
}
