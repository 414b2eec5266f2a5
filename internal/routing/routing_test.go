package routing_test

import (
	"errors"
	"math/rand"
	"testing"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/routing"
	"linkreversal/internal/workload"
)

func newRouter(t *testing.T, topo *workload.Topology) *routing.Router {
	t.Helper()
	r, err := routing.NewRouter(topo)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func stabilize(t *testing.T, r *routing.Router) int {
	t.Helper()
	steps, err := r.Stabilize()
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

func TestRouterInitialRoutes(t *testing.T) {
	// Good chain: already destination-oriented, routes exist immediately.
	r := newRouter(t, workload.GoodChain(6))
	if steps := stabilize(t, r); steps != 0 {
		t.Errorf("stabilize on oriented chain took %d steps, want 0", steps)
	}
	path, err := r.Route(5)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 5 || path[len(path)-1] != 0 {
		t.Errorf("path = %v, want 5 → … → 0", path)
	}
	if len(path) != 6 {
		t.Errorf("chain route length = %d, want 6", len(path))
	}
}

func TestRouterStabilizesBadChain(t *testing.T) {
	r := newRouter(t, workload.BadChain(8))
	steps := stabilize(t, r)
	if steps == 0 {
		t.Fatal("bad chain must require reversals")
	}
	for u := 1; u <= 8; u++ {
		path, err := r.Route(graph.NodeID(u))
		if err != nil {
			t.Fatalf("route from %d: %v", u, err)
		}
		if path[len(path)-1] != 0 {
			t.Errorf("route from %d ends at %d", u, path[len(path)-1])
		}
	}
	if !r.Acyclic() {
		t.Error("routing graph must stay acyclic")
	}
}

func TestRouteBeforeStabilizeFails(t *testing.T) {
	r := newRouter(t, workload.BadChain(4))
	// Node 4 is a sink initially; routing from it must fail.
	if _, err := r.Route(4); !errors.Is(err, routing.ErrNotStabilized) {
		t.Errorf("error = %v, want ErrNotStabilized", err)
	}
}

func TestLinkFailureTriggersRepair(t *testing.T) {
	// Ladder: two disjoint routes exist; removing one rail edge must be
	// repaired by reversals while keeping all routes loop-free.
	r := newRouter(t, workload.Ladder(5))
	stabilize(t, r)
	before := r.Reversals()
	// Remove the first top-rail link on the route.
	if err := r.RemoveLink(0, 1); err != nil {
		t.Fatal(err)
	}
	steps := stabilize(t, r)
	if !r.Acyclic() {
		t.Fatal("acyclicity lost after link failure")
	}
	for u := 1; u < r.NumNodes(); u++ {
		if _, err := r.Route(graph.NodeID(u)); err != nil {
			t.Errorf("route from %d after failure: %v", u, err)
		}
	}
	t.Logf("repair after failure: %d steps, %d reversals total (was %d)",
		steps, r.Reversals(), before)
}

// TestPartitionDetection cuts a chain in two. Stabilize repairs the
// destination's half alone: the cut-off nodes keep their heights, the
// steps it counts are those the half takes on its own, and the cut-off
// nodes read as partitioned until a heal restores their routes.
func TestPartitionDetection(t *testing.T) {
	tests := []struct {
		name   string
		topo   *workload.Topology
		settle bool // stabilize before the cut
		cut    [2]graph.NodeID
		off    []graph.NodeID     // cut off from destination 0
		half   *workload.Topology // the destination's half on its own
	}{
		// Chain 0-1-2-3 oriented toward 0: removing {1,2} cuts nodes 2,3
		// off and leaves 0-1 oriented.
		{name: "oriented", topo: workload.GoodChain(4), settle: true, cut: [2]graph.NodeID{1, 2},
			off: []graph.NodeID{2, 3}, half: workload.GoodChain(2)},
		// Chain 0-1-2-3-4 oriented away from 0, cut at {2,3} before any
		// repair: 0-1-2 must reverse, while 3 is a sink of its own half.
		{name: "unrepaired", topo: workload.BadChain(4), cut: [2]graph.NodeID{2, 3},
			off: []graph.NodeID{3, 4}, half: workload.BadChain(2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newRouter(t, tt.topo)
			if tt.settle {
				stabilize(t, r)
			}
			before := r.Reversals()
			if err := r.RemoveLink(tt.cut[0], tt.cut[1]); err != nil {
				t.Fatal(err)
			}
			heights := make([]core.Height, len(tt.off))
			for i, u := range tt.off {
				heights[i], _ = r.Height(u)
			}
			steps := stabilize(t, r)
			if want := stabilize(t, newRouter(t, tt.half)); steps != want || r.Reversals()-before != want {
				t.Errorf("repair took %d steps and counted %d reversals; the destination's half alone takes %d",
					steps, r.Reversals()-before, want)
			}
			for i, u := range tt.off {
				if h, _ := r.Height(u); h != heights[i] {
					t.Errorf("cut-off node %d moved from %v to %v", u, heights[i], h)
				}
				p, err := r.Partitioned(u)
				if err != nil {
					t.Fatal(err)
				}
				if !p {
					t.Errorf("node %d should be partitioned", u)
				}
				if _, err := r.Route(u); !errors.Is(err, routing.ErrPartitioned) {
					t.Errorf("route from %d: error = %v, want ErrPartitioned", u, err)
				}
			}
			// The destination's half still routes.
			for u := graph.NodeID(1); u < tt.off[0]; u++ {
				if _, err := r.Route(u); err != nil {
					t.Errorf("route from %d: %v", u, err)
				}
			}
			// Healing the partition restores routes.
			if err := r.AddLink(tt.cut[0], tt.cut[1]); err != nil {
				t.Fatal(err)
			}
			stabilize(t, r)
			for _, u := range tt.off {
				if _, err := r.Route(u); err != nil {
					t.Errorf("route from %d after healing: %v", u, err)
				}
			}
		})
	}
}

func TestAddLinkDirectionFromHeights(t *testing.T) {
	r := newRouter(t, workload.GoodChain(4))
	stabilize(t, r)
	if err := r.AddLink(0, 3); err != nil {
		t.Fatal(err)
	}
	if !r.Acyclic() {
		t.Error("adding a link must preserve acyclicity")
	}
	// The new link must appear in exactly one direction.
	h0, err := r.Height(0)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := r.Height(3)
	if err != nil {
		t.Fatal(err)
	}
	hops3 := r.NextHops(3)
	has := func(vs []graph.NodeID, x graph.NodeID) bool {
		for _, v := range vs {
			if v == x {
				return true
			}
		}
		return false
	}
	if h0.Less(h3) && !has(hops3, 0) {
		t.Error("3 has greater height but no next hop to 0")
	}
}

func TestLinkMutationErrors(t *testing.T) {
	r := newRouter(t, workload.GoodChain(3))
	tests := []struct {
		name    string
		op      func() error
		wantErr error
	}{
		{name: "add existing", op: func() error { return r.AddLink(0, 1) }, wantErr: routing.ErrLinkExists},
		{name: "add self", op: func() error { return r.AddLink(1, 1) }, wantErr: routing.ErrSelfLink},
		{name: "add unknown", op: func() error { return r.AddLink(0, 9) }, wantErr: routing.ErrUnknownNode},
		{name: "remove absent", op: func() error { return r.RemoveLink(0, 2) }, wantErr: routing.ErrNoSuchLink},
		{name: "remove unknown", op: func() error { return r.RemoveLink(0, 9) }, wantErr: routing.ErrUnknownNode},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.op(); !errors.Is(err, tt.wantErr) {
				t.Errorf("error = %v, want %v", err, tt.wantErr)
			}
		})
	}
	if _, err := r.Route(42); !errors.Is(err, routing.ErrUnknownNode) {
		t.Errorf("route unknown: %v", err)
	}
	if _, err := r.Height(42); !errors.Is(err, routing.ErrUnknownNode) {
		t.Errorf("height unknown: %v", err)
	}
	if _, err := r.Partitioned(42); !errors.Is(err, routing.ErrUnknownNode) {
		t.Errorf("partitioned unknown: %v", err)
	}
}

// TestChurn subjects the router to a long random sequence of link failures
// and additions; after every event the network must re-stabilize with
// acyclic, loop-free routes for every connected node.
func TestChurn(t *testing.T) {
	topo := workload.RandomConnected(16, 0.25, 42)
	r := newRouter(t, topo)
	stabilize(t, r)
	rng := rand.New(rand.NewSource(7))
	var links [][2]graph.NodeID
	for _, e := range topo.Graph.Edges() {
		links = append(links, [2]graph.NodeID{e.U, e.V})
	}
	removed := make(map[[2]graph.NodeID]bool)
	for event := 0; event < 200; event++ {
		l := links[rng.Intn(len(links))]
		if removed[l] {
			if err := r.AddLink(l[0], l[1]); err != nil {
				t.Fatalf("event %d add %v: %v", event, l, err)
			}
			delete(removed, l)
		} else {
			if err := r.RemoveLink(l[0], l[1]); err != nil {
				t.Fatalf("event %d remove %v: %v", event, l, err)
			}
			removed[l] = true
		}
		if _, err := r.Stabilize(); err != nil {
			t.Fatalf("event %d stabilize: %v", event, err)
		}
		if !r.Acyclic() {
			t.Fatalf("event %d: cycle in routing graph", event)
		}
		for u := 0; u < r.NumNodes(); u++ {
			id := graph.NodeID(u)
			part, err := r.Partitioned(id)
			if err != nil {
				t.Fatal(err)
			}
			if part {
				continue
			}
			if _, err := r.Route(id); err != nil {
				t.Fatalf("event %d: route from %d: %v", event, u, err)
			}
		}
	}
	if r.Events() != 200 {
		t.Errorf("Events = %d, want 200", r.Events())
	}
}

func TestNextHopsAndNeighbors(t *testing.T) {
	r := newRouter(t, workload.GoodChain(3))
	stabilize(t, r)
	nbrs := r.Neighbors(1)
	if len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 2 {
		t.Errorf("Neighbors(1) = %v, want [0 2]", nbrs)
	}
	hops := r.NextHops(1)
	if len(hops) != 1 || hops[0] != 0 {
		t.Errorf("NextHops(1) = %v, want [0]", hops)
	}
	if r.NextHops(99) != nil {
		t.Error("NextHops(unknown) should be nil")
	}
	if !r.HasLink(0, 1) || r.HasLink(0, 2) {
		t.Error("HasLink wrong")
	}
}
