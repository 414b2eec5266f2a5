package linkreversal_test

import (
	"context"
	"runtime"
	"testing"

	lr "linkreversal"
)

// TestRepairAllocs pins the repair path's allocations to the run's fixed
// set-up: the graph, the Init, the node table and the result are flat
// arrays, so a 4× larger grid costs no more allocations than the buffers
// that grow with the cascade. A per-node slice, map or record anywhere on
// the path adds thousands.
func TestRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	opts := lr.DistOptions{Shards: 2, Partition: lr.DistPartitionBlock, RecordTrace: lr.DistTraceOff}
	measure := func(topo *lr.Topology) float64 {
		run := func() {
			rep, err := lr.RunDistributedWith(context.Background(), topo, lr.DistPR, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Acyclic || !rep.DestinationOriented {
				t.Fatalf("%s: acyclic=%v destination-oriented=%v", topo.Name, rep.Acyclic, rep.DestinationOriented)
			}
		}
		run() // warm-up
		return testing.AllocsPerRun(5, run)
	}
	small, large := measure(lr.Grid(32, 32)), measure(lr.Grid(64, 64))
	t.Logf("allocs/run: Grid(32, 32) = %.0f, Grid(64, 64) = %.0f", small, large)
	if large-small > 32 {
		t.Errorf("Grid(64, 64) allocates %.0f more than Grid(32, 32); a per-node allocation crept in", large-small)
	}
	if large >= 200 {
		t.Errorf("Grid(64, 64) allocates %.0f ≥ 200 per repair", large)
	}
}

// TestRepairBytesPerNode pins how many bytes a PR repair allocates per
// node on top of the topology it is given: the Init, the node table, the
// batches and run-queues, the final orientation and the result check. The
// repair builds no per-slot array beyond the node table's own (the graph
// stores each slot's twin, and the Init builds its neighbour sets only for
// NewPR and the invariant checks), which keeps a grid repair near 120 bytes
// per node; a per-run twin array and eagerly built sets would add about 70.
func TestRepairBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const bound = 140
	topo := lr.Grid(128, 128)
	opts := lr.DistOptions{Shards: 2, Partition: lr.DistPartitionBlock, RecordTrace: lr.DistTraceOff}
	run := func() {
		rep, err := lr.RunDistributedWith(context.Background(), topo, lr.DistPR, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Acyclic || !rep.DestinationOriented {
			t.Fatalf("acyclic=%v destination-oriented=%v", rep.Acyclic, rep.DestinationOriented)
		}
	}
	run() // warm-up
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(topo.Graph.NumNodes())
	t.Logf("Grid(128, 128) PR repair: %.0f bytes/node", perNode)
	if perNode >= bound {
		t.Errorf("a PR repair of Grid(128, 128) allocates %.0f bytes/node, want < %d", perNode, bound)
	}
}

// TestOrientationQueriesAllocFree pins the edge lookups that every
// automaton step and invariant check makes: each is a binary search of one
// CSR row and allocates nothing, on edges, non-edges and out-of-range
// nodes alike.
func TestOrientationQueriesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	topo := lr.Grid(16, 16)
	g, o := topo.Graph, topo.Initial.Clone()
	edges := g.Edges()
	n := lr.NodeID(g.NumNodes())
	allocs := testing.AllocsPerRun(10, func() {
		for _, e := range edges {
			if _, ok := o.Dir(e.U, e.V); !ok {
				t.Fatal("Dir lost an edge")
			}
			o.PointsTo(e.V, e.U)
			if !g.HasEdge(e.V, e.U) {
				t.Fatal("HasEdge lost an edge")
			}
			if _, ok := g.EdgeIndex(e.U, e.V); !ok {
				t.Fatal("EdgeIndex lost an edge")
			}
			if err := o.Reverse(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range [][2]lr.NodeID{{0, n - 1}, {-1, 0}, {0, n}} {
			o.Dir(p[0], p[1])
			o.PointsTo(p[0], p[1])
			g.HasEdge(p[0], p[1])
			g.EdgeIndex(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Errorf("Dir, PointsTo, Reverse, HasEdge and EdgeIndex allocate %.1f times per sweep, want 0", allocs)
	}
}

// TestRouterPartitionedAllocFree pins Router.Partitioned, which lrroute's
// status command calls once per node: the router keeps the destination's
// component until a link changes, so a call between changes is a binary
// search that allocates nothing, and a cut is seen by the next call.
func TestRouterPartitionedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	r, err := lr.NewRouter(lr.Grid(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stabilize(); err != nil {
		t.Fatal(err)
	}
	corner := lr.NodeID(r.NumNodes() - 1)
	partitioned := func(u lr.NodeID) bool {
		p, err := r.Partitioned(u)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if partitioned(corner) {
			t.Fatal("connected corner reads as partitioned")
		}
	}); allocs != 0 {
		t.Errorf("Partitioned allocates %.1f times per call, want 0", allocs)
	}
	for _, v := range r.Neighbors(corner) {
		if err := r.RemoveLink(corner, v); err != nil {
			t.Fatal(err)
		}
	}
	if !partitioned(corner) || partitioned(corner-1) {
		t.Errorf("after cutting node %d off: Partitioned = %v, and %v for its neighbour %d; want true, false",
			corner, partitioned(corner), partitioned(corner-1), corner-1)
	}
}
