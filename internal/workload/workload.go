// Package workload provides deterministic topology generators for the
// experiments: the worst-case "bad chain" of the Θ(n_b²) bound, layered
// random DAGs, grids, stars, trees, rings and ladders. All randomized
// generators take an explicit seed so every experiment is reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
)

// Topology is a named graph with a designated destination and an initial
// orientation.
type Topology struct {
	Name    string
	Graph   *graph.Graph
	Initial *graph.Orientation
	Dest    graph.NodeID
}

// Init builds the immutable core.Init for this topology.
func (t *Topology) Init() (*core.Init, error) {
	in, err := core.NewInit(t.Graph, t.Initial, t.Dest)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", t.Name, err)
	}
	return in, nil
}

// MustInit is Init for known-good topologies; it panics on error. Intended
// for tests and benchmarks over generator output.
func (t *Topology) MustInit() *core.Init {
	in, err := t.Init()
	if err != nil {
		panic(err)
	}
	return in
}

// BadChain builds the classic worst-case input for link reversal: a path
// D = 0 — 1 — 2 — … — n_b with every edge initially directed *away* from the
// destination, so all n_b non-destination nodes are "bad" (no path to D).
// Repairing it costs Θ(n_b²) total reversals for both FR and PR.
func BadChain(nb int) *Topology {
	n := nb + 1
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.MustBuild()
	directed := make([][2]graph.NodeID, 0, n-1)
	for i := 0; i < n-1; i++ {
		// Away from destination 0: i → i+1.
		directed = append(directed, [2]graph.NodeID{graph.NodeID(i), graph.NodeID(i + 1)})
	}
	o, err := graph.OrientationFromDirected(g, directed)
	if err != nil {
		panic(fmt.Sprintf("workload: bad chain orientation: %v", err))
	}
	return &Topology{
		Name:    fmt.Sprintf("bad-chain-%d", nb),
		Graph:   g,
		Initial: o,
		Dest:    0,
	}
}

// AlternatingChain builds the worst-case input for *Partial* Reversal: a
// path D = 0 — 1 — … — n_b whose edges alternate direction (0→1, 2→1,
// 2→3, 4→3, …). Every non-destination node is bad, and PR performs exactly
// n(n−1)/2 total reversals repairing it — the Θ(n_b²) lower-bound instance
// (the all-away BadChain, by contrast, is repaired by PR in a single linear
// pass).
func AlternatingChain(nb int) *Topology {
	n := nb + 1
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.MustBuild()
	directed := make([][2]graph.NodeID, 0, n-1)
	for i := 0; i < n-1; i++ {
		if i%2 == 0 {
			directed = append(directed, [2]graph.NodeID{graph.NodeID(i), graph.NodeID(i + 1)})
		} else {
			directed = append(directed, [2]graph.NodeID{graph.NodeID(i + 1), graph.NodeID(i)})
		}
	}
	o, err := graph.OrientationFromDirected(g, directed)
	if err != nil {
		panic(fmt.Sprintf("workload: alternating chain orientation: %v", err))
	}
	return &Topology{
		Name:    fmt.Sprintf("alt-chain-%d", nb),
		Graph:   g,
		Initial: o,
		Dest:    0,
	}
}

// GoodChain builds a path with every edge directed toward the destination
// (node 0); it is already destination-oriented, so algorithms quiesce
// immediately.
func GoodChain(n int) *Topology {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.MustBuild()
	directed := make([][2]graph.NodeID, 0, n-1)
	for i := 0; i < n-1; i++ {
		directed = append(directed, [2]graph.NodeID{graph.NodeID(i + 1), graph.NodeID(i)})
	}
	o, err := graph.OrientationFromDirected(g, directed)
	if err != nil {
		panic(fmt.Sprintf("workload: good chain orientation: %v", err))
	}
	return &Topology{
		Name:    fmt.Sprintf("good-chain-%d", n),
		Graph:   g,
		Initial: o,
		Dest:    0,
	}
}

// Star builds a star with the destination at the hub (node 0) and leaves
// 1..n-1, with every spoke directed hub→leaf so that every leaf is a sink
// and none has a path to the destination.
func Star(n int) *Topology {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	g := b.MustBuild()
	directed := make([][2]graph.NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		directed = append(directed, [2]graph.NodeID{0, graph.NodeID(i)})
	}
	o, err := graph.OrientationFromDirected(g, directed)
	if err != nil {
		panic(fmt.Sprintf("workload: star orientation: %v", err))
	}
	return &Topology{
		Name:    fmt.Sprintf("star-%d", n),
		Graph:   g,
		Initial: o,
		Dest:    0,
	}
}

// Ladder builds a 2×k ladder (two parallel paths with rungs) with the
// destination at one corner and all edges initially directed away from it.
// Ladders are the standard example where PR beats FR by a constant factor.
func Ladder(k int) *Topology {
	if k < 1 {
		k = 1
	}
	n := 2 * k
	b := graph.NewBuilder(n)
	// Rails: top nodes 0..k-1, bottom nodes k..2k-1.
	for i := 0; i < k-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		b.AddEdge(graph.NodeID(k+i), graph.NodeID(k+i+1))
	}
	// Rungs.
	for i := 0; i < k; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(k+i))
	}
	g := b.MustBuild()
	var directed [][2]graph.NodeID
	for i := 0; i < k-1; i++ {
		directed = append(directed,
			[2]graph.NodeID{graph.NodeID(i), graph.NodeID(i + 1)},
			[2]graph.NodeID{graph.NodeID(k + i), graph.NodeID(k + i + 1)})
	}
	for i := 0; i < k; i++ {
		directed = append(directed, [2]graph.NodeID{graph.NodeID(i), graph.NodeID(k + i)})
	}
	o, err := graph.OrientationFromDirected(g, directed)
	if err != nil {
		panic(fmt.Sprintf("workload: ladder orientation: %v", err))
	}
	return &Topology{
		Name:    fmt.Sprintf("ladder-%d", k),
		Graph:   g,
		Initial: o,
		Dest:    0,
	}
}

// Grid builds an r×c grid with the destination at the top-left corner and
// all edges directed low→high in row-major node order (away from the
// destination along both axes).
func Grid(r, c int) *Topology {
	n := r * c
	b := graph.NewBuilder(n)
	id := func(i, j int) graph.NodeID { return graph.NodeID(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				b.AddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < r {
				b.AddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	g := b.MustBuild()
	return &Topology{
		Name:    fmt.Sprintf("grid-%dx%d", r, c),
		Graph:   g,
		Initial: graph.NewOrientation(g),
		Dest:    0,
	}
}

// LayeredDAG builds a connected layered random DAG: `layers` layers of
// `width` nodes, node 0 alone in layer 0 as the destination. Each node has
// an edge to a uniformly random node in the previous layer (guaranteeing
// connectivity) plus additional edges to the previous layer with probability
// p. Edge direction is chosen uniformly at random, so a random fraction of
// nodes starts with no path to the destination.
func LayeredDAG(layers, width int, p float64, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	if layers < 2 {
		layers = 2
	}
	if width < 1 {
		width = 1
	}
	n := 1 + (layers-1)*width
	b := graph.NewBuilder(n)
	nodeAt := func(layer, idx int) graph.NodeID {
		if layer == 0 {
			return 0
		}
		return graph.NodeID(1 + (layer-1)*width + idx)
	}
	layerSize := func(layer int) int {
		if layer == 0 {
			return 1
		}
		return width
	}
	type edge struct{ lo, hi graph.NodeID }
	var edges []edge
	seen := make(map[graph.Edge]bool)
	addEdge := func(a, c graph.NodeID) {
		e := graph.NormalizedEdge(a, c)
		if seen[e] {
			return
		}
		seen[e] = true
		b.AddEdge(e.U, e.V)
		edges = append(edges, edge{lo: e.U, hi: e.V})
	}
	for layer := 1; layer < layers; layer++ {
		for idx := 0; idx < width; idx++ {
			u := nodeAt(layer, idx)
			// Mandatory edge for connectivity.
			prev := nodeAt(layer-1, rng.Intn(layerSize(layer-1)))
			addEdge(u, prev)
			// Extra edges.
			for k := 0; k < layerSize(layer-1); k++ {
				if rng.Float64() < p {
					addEdge(u, nodeAt(layer-1, k))
				}
			}
		}
	}
	g := b.MustBuild()
	// Random initial direction per edge, but always low→high or high→low per
	// node ID keeps acyclicity: orient each edge according to a random
	// permutation rank so the result is a DAG.
	rank := rng.Perm(n)
	directed := make([][2]graph.NodeID, 0, len(edges))
	for _, e := range edges {
		if rank[e.lo] < rank[e.hi] {
			directed = append(directed, [2]graph.NodeID{e.lo, e.hi})
		} else {
			directed = append(directed, [2]graph.NodeID{e.hi, e.lo})
		}
	}
	o, err := graph.OrientationFromDirected(g, directed)
	if err != nil {
		panic(fmt.Sprintf("workload: layered DAG orientation: %v", err))
	}
	return &Topology{
		Name:    fmt.Sprintf("layered-%dx%d-p%.2f-s%d", layers, width, p, seed),
		Graph:   g,
		Initial: o,
		Dest:    0,
	}
}

// RandomConnected builds a connected random graph on n nodes: a random
// spanning tree plus each remaining pair independently with probability p,
// oriented as a DAG by a random permutation. Destination is node 0.
func RandomConnected(n int, p float64, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	if n < 1 {
		n = 1
	}
	b := graph.NewBuilder(n)
	seen := make(map[graph.Edge]bool)
	type edge struct{ lo, hi graph.NodeID }
	var edges []edge
	addEdge := func(a, c graph.NodeID) {
		e := graph.NormalizedEdge(a, c)
		if seen[e] {
			return
		}
		seen[e] = true
		b.AddEdge(e.U, e.V)
		edges = append(edges, edge{lo: e.U, hi: e.V})
	}
	// Random spanning tree: attach each node to a random earlier node.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				addEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	g := b.MustBuild()
	rank := rng.Perm(n)
	directed := make([][2]graph.NodeID, 0, len(edges))
	for _, e := range edges {
		if rank[e.lo] < rank[e.hi] {
			directed = append(directed, [2]graph.NodeID{e.lo, e.hi})
		} else {
			directed = append(directed, [2]graph.NodeID{e.hi, e.lo})
		}
	}
	o, err := graph.OrientationFromDirected(g, directed)
	if err != nil {
		panic(fmt.Sprintf("workload: random connected orientation: %v", err))
	}
	return &Topology{
		Name:    fmt.Sprintf("random-%d-p%.2f-s%d", n, p, seed),
		Graph:   g,
		Initial: o,
		Dest:    0,
	}
}

// Tree builds a random tree on n nodes (each node attached to a uniformly
// random earlier node), oriented low→high, destination 0.
func Tree(n int, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i))
	}
	g := b.MustBuild()
	return &Topology{
		Name:    fmt.Sprintf("tree-%d-s%d", n, seed),
		Graph:   g,
		Initial: graph.NewOrientation(g),
		Dest:    0,
	}
}

// Ring builds an n-cycle (n ≥ 3) with a seeded random DAG orientation
// (edges oriented by a random permutation rank), destination 0.
func Ring(n int, seed int64) *Topology {
	if n < 3 {
		n = 3
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	b.AddEdge(0, graph.NodeID(n-1))
	g := b.MustBuild()
	// Orient via a random permutation rank to get a random DAG orientation.
	rank := rng.Perm(n)
	directed := make([][2]graph.NodeID, 0, n)
	for _, e := range g.Edges() {
		if rank[e.U] < rank[e.V] {
			directed = append(directed, [2]graph.NodeID{e.U, e.V})
		} else {
			directed = append(directed, [2]graph.NodeID{e.V, e.U})
		}
	}
	o, err := graph.OrientationFromDirected(g, directed)
	if err != nil {
		panic(fmt.Sprintf("workload: ring orientation: %v", err))
	}
	return &Topology{
		Name:    fmt.Sprintf("ring-%d-s%d", n, seed),
		Graph:   g,
		Initial: o,
		Dest:    0,
	}
}

// Names lists the topology names ByName accepts.
const Names = "bad-chain, alt-chain, good-chain, star, ladder, grid, tree, ring, layered, random"

// ByName builds a topology by name from a size parameter n, an edge
// density p and a seed: the -topo table of the batch CLIs. n is passed to
// the generator as its size parameter, grid builds the n×n square, and
// layered spreads about n nodes over four layers; p is read by layered and
// random, seed by tree, ring, layered and random. n must be at least 1.
func ByName(name string, n int, p float64, seed int64) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology size %d (want n ≥ 1)", n)
	}
	switch strings.ToLower(name) {
	case "bad-chain":
		return BadChain(n), nil
	case "alt-chain":
		return AlternatingChain(n), nil
	case "good-chain":
		return GoodChain(n), nil
	case "star":
		return Star(n), nil
	case "ladder":
		return Ladder(n), nil
	case "grid":
		return Grid(n, n), nil
	case "tree":
		return Tree(n, seed), nil
	case "ring":
		return Ring(n, seed), nil
	case "layered":
		return LayeredDAG(4, (n+2)/4, p, seed), nil
	case "random":
		return RandomConnected(n, p, seed), nil
	default:
		return nil, fmt.Errorf("unknown topology %q (%s)", name, Names)
	}
}
