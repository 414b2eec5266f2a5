package dist

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// snapClone deep-copies a snapshot — heights, cut, removed marks and every
// adjacency row — so a later comparison can prove the original never
// mutated.
func snapClone(s *Snapshot) *Snapshot {
	c := *s
	c.Heights = append([]DynHeight(nil), s.Heights...)
	c.Cut = append([]graph.NodeID(nil), s.Cut...)
	c.dead = s.dead.Clone()
	c.adj = make(adjRows, len(s.adj))
	for i, page := range s.adj {
		c.adj[i] = new(adjPage)
		for j, row := range page {
			c.adj[i][j] = append([]graph.NodeID(nil), row...)
		}
	}
	return &c
}

// requireSnapEqual asserts two snapshots describe the same global state
// (epoch and cumulative counters excluded — they track observation, not
// state).
func requireSnapEqual(t *testing.T, want, got *Snapshot, label string) {
	t.Helper()
	if len(want.Heights) != len(got.Heights) {
		t.Fatalf("%s: node count %d != %d", label, len(got.Heights), len(want.Heights))
	}
	for u := range want.Heights {
		if want.Heights[u] != got.Heights[u] {
			t.Errorf("%s: height of %d: %v != %v", label, u, got.Heights[u], want.Heights[u])
		}
		if want.Removed(graph.NodeID(u)) != got.Removed(graph.NodeID(u)) {
			t.Errorf("%s: dead mark of %d differs", label, u)
		}
		wl, gl := want.Links(graph.NodeID(u)), got.Links(graph.NodeID(u))
		if fmt.Sprint(wl) != fmt.Sprint(gl) {
			t.Errorf("%s: links of %d: %v != %v", label, u, gl, wl)
		}
	}
	if fmt.Sprint(want.Cut) != fmt.Sprint(got.Cut) {
		t.Errorf("%s: cut %v != %v", label, got.Cut, want.Cut)
	}
}

// TestReadSnapshotNeverNil pins that a snapshot of the initial state is
// published at construction, before any quiescence.
func TestReadSnapshotNeverNil(t *testing.T) {
	for _, c := range dynEngines(t) {
		topo := workload.GoodChain(5)
		net, err := NewDynamicNetworkWith(topo, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		s := net.ReadSnapshot()
		if s == nil {
			t.Fatalf("%s: ReadSnapshot nil before first quiescence", c.name)
		}
		if s.Epoch == 0 {
			t.Errorf("%s: published snapshot has epoch 0", c.name)
		}
		net.Stop()
	}
}

// TestPublishedAgreesWithSnapshotAtQuiescence pins the cross-layout epoch
// contract: after a quiescent AwaitQuiescence, the published snapshot and
// a fresh Snapshot() describe the same state, and every test configuration
// agrees on that state.
func TestPublishedAgreesWithSnapshotAtQuiescence(t *testing.T) {
	var ref *Snapshot
	for _, c := range dynEngines(t) {
		topo := workload.Grid(4, 5)
		net, err := NewDynamicNetworkWith(topo, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		// Churn a little so the published state is not the initial one.
		if err := net.FailLink(5, 6); err != nil {
			t.Fatal(err)
		}
		if err := net.AddLink(5, 6); err != nil {
			t.Fatal(err)
		}
		if err := net.AwaitQuiescence(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pub := net.ReadSnapshot()
		direct := net.Snapshot()
		if !pub.Quiescent {
			t.Errorf("%s: snapshot published at quiescence not marked quiescent", c.name)
		}
		if pub.Epoch == 0 {
			t.Errorf("%s: quiescent publication kept epoch 0", c.name)
		}
		requireSnapEqual(t, direct, pub, fmt.Sprintf("%s pub-vs-direct", c.name))
		requireRoutes(t, pub, 20, net.dest)
		if ref == nil {
			ref = pub
		} else {
			requireSnapEqual(t, ref, pub, fmt.Sprintf("%s vs the first configuration", c.name))
		}
		net.Stop()
	}
}

// TestSnapshotEpochConsistencyAcrossHeal pins the reader-side half of the
// RCU contract: a reader holding an old epoch keeps seeing that epoch's
// exact orientation — routes included — while the network detects a
// partition, reports it and heals, and the publications along the way
// carry strictly increasing epochs.
func TestSnapshotEpochConsistencyAcrossHeal(t *testing.T) {
	for _, c := range dynEngines(t) {
		topo := workload.GoodChain(8)
		net, err := NewDynamicNetworkWith(topo, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AwaitQuiescence(); err != nil {
			t.Fatal(err)
		}
		old := net.ReadSnapshot()
		want := snapClone(old)
		wantPath, ok := old.RouteFrom(7, 0, 8)
		if !ok {
			t.Fatalf("%s: no route on the quiesced chain", c.name)
		}
		wantPathCopy := append([]graph.NodeID(nil), wantPath...)

		// Cut the chain: nodes 4..7 lose the destination.
		if err := net.FailLink(3, 4); err != nil {
			t.Fatal(err)
		}
		if err, ok := net.AwaitQuiescence().(*PartitionError); !ok {
			t.Fatalf("%s: expected PartitionError, got %v", c.name, err)
		}
		cutSnap := net.ReadSnapshot()
		if cutSnap.Epoch <= old.Epoch {
			t.Errorf("%s: partition publication epoch %d not above %d", c.name, cutSnap.Epoch, old.Epoch)
		}
		if len(cutSnap.Cut) != 4 {
			t.Errorf("%s: published cut %v, want the 4 stranded nodes", c.name, cutSnap.Cut)
		}

		// Heal and requiesce.
		if err := net.AddLink(3, 4); err != nil {
			t.Fatal(err)
		}
		if err := net.AwaitQuiescence(); err != nil {
			t.Fatalf("%s: heal: %v", c.name, err)
		}
		healed := net.ReadSnapshot()
		if healed.Epoch <= cutSnap.Epoch {
			t.Errorf("%s: heal publication epoch %d not above %d", c.name, healed.Epoch, cutSnap.Epoch)
		}
		if len(healed.Cut) != 0 {
			t.Errorf("%s: healed snapshot still names a cut: %v", c.name, healed.Cut)
		}

		// The reader's old epoch never moved: same heights, same links, and
		// the route it computed before the cut still derives verbatim.
		requireSnapEqual(t, want, old, fmt.Sprintf("%s held epoch", c.name))
		gotPath, ok := old.RouteFrom(7, 0, 8)
		if !ok || fmt.Sprint(gotPath) != fmt.Sprint(wantPathCopy) {
			t.Errorf("%s: held epoch's route changed: %v -> %v (ok=%v)", c.name, wantPathCopy, gotPath, ok)
		}
		net.Stop()
	}
}

// TestHeldSnapshotsNeverChange holds every snapshot a churn script
// produces — the published epoch and a direct Snapshot() after each op —
// and requires each to end the script exactly as it was captured, with the
// links the network had when it was captured. The script reaches every
// write to a table that snapshots share: flaps that make nodes step
// (commit writes heights), a cut and heal (eraseLocked rewrites heights),
// AddNode then AddLink (the height append), RemoveNode, Crash then
// Recover, and a publication taken mid-flight, with row edits on every
// link change. A write that skips its copy-on-write changes a held
// snapshot.
func TestHeldSnapshotsNeverChange(t *testing.T) {
	for _, c := range dynEngines(t) {
		t.Run(c.name, func(t *testing.T) {
			// 4×5 grid, node i*5+j at row i, column j; the destination is 0.
			topo := workload.Grid(4, 5)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			edges := map[graph.Edge]bool{}
			for _, e := range topo.Graph.Edges() {
				edges[e] = true
			}
			add := func(u, v graph.NodeID) func() error {
				return func() error {
					edges[graph.NormalizedEdge(u, v)] = true
					return net.AddLink(u, v)
				}
			}
			fail := func(u, v graph.NodeID) func() error {
				return func() error {
					delete(edges, graph.NormalizedEdge(u, v))
					return net.FailLink(u, v)
				}
			}
			await := func() error { return net.AwaitQuiescence() }
			var added graph.NodeID
			script := []struct {
				label string
				op    func() error
			}{
				{"stabilize", await},
				// Node 1's and node 5's only lower neighbour is the
				// destination, so failing those links makes them step.
				{"fail 0-1", fail(0, 1)}, {"await", await},
				{"add 0-1", add(0, 1)}, {"await", await},
				{"fail 0-5", fail(0, 5)}, {"await", await},
				{"add 0-5", add(0, 5)}, {"await", await},
				{"fail 12-13", fail(12, 13)},
				{"publish mid-flight", func() error { net.PublishSnapshot(); return nil }},
				{"add 12-13", add(12, 13)}, {"await", await},
				// Isolate the corner 19, report the cut, heal it.
				{"fail 14-19", fail(14, 19)}, {"fail 18-19", fail(18, 19)},
				{"await cut", func() error {
					var pe *PartitionError
					if err := net.AwaitQuiescence(); !errors.As(err, &pe) || fmt.Sprint(pe.Cut) != "[19]" {
						return fmt.Errorf("await after isolating 19 = %v, want the cut [19]", err)
					}
					return nil
				}},
				{"heal 14-19", add(14, 19)}, {"await", await},
				{"add node", func() error {
					var err error
					added, err = net.AddNode()
					return err
				}},
				{"link the new node", func() error { return add(added, 19)() }}, {"await", await},
				{"remove 12", func() error {
					for e := range edges {
						if e.U == 12 || e.V == 12 {
							delete(edges, e)
						}
					}
					return net.RemoveNode(12)
				}},
				{"await", await},
				{"crash 7", func() error { return net.Crash(7) }},
				{"fail 7-8", fail(7, 8)},
				{"recover 7", func() error { return net.Recover(7) }}, {"await", await},
			}

			type held struct {
				label    string
				s, clone *Snapshot
				edges    map[graph.Edge]bool
			}
			var all []held
			// pubEdges remembers the links at each publication: a new epoch
			// is first seen right after the op that published it, and no
			// publishing op changes links.
			pubEdges := map[uint64]map[graph.Edge]bool{}
			capture := func(label string) {
				pub := net.ReadSnapshot()
				if _, ok := pubEdges[pub.Epoch]; !ok {
					pubEdges[pub.Epoch] = maps.Clone(edges)
				}
				direct := net.Snapshot()
				all = append(all,
					held{label + " (published)", pub, snapClone(pub), pubEdges[pub.Epoch]},
					held{label + " (direct)", direct, snapClone(direct), maps.Clone(edges)})
			}
			capture("start")
			startSteps := net.Snapshot().Steps
			for i, step := range script {
				if err := step.op(); err != nil {
					t.Fatalf("op %d (%s): %v", i, step.label, err)
				}
				capture(fmt.Sprintf("op %d (%s)", i, step.label))
				if step.label == "add 0-5" && net.Snapshot().Steps == startSteps {
					t.Fatal("the flaps made no node step; the commit path is not exercised")
				}
			}

			for _, h := range all {
				if !reflect.DeepEqual(h.s, h.clone) {
					t.Errorf("%s: epoch %d changed after capture", h.label, h.s.Epoch)
					requireSnapEqual(t, h.clone, h.s, h.label)
				}
				for u := 0; u < h.s.NumNodes(); u++ {
					var want []graph.NodeID
					for e := range h.edges {
						if int(e.U) == u {
							want = append(want, e.V)
						} else if int(e.V) == u {
							want = append(want, e.U)
						}
					}
					slices.Sort(want)
					if got := h.s.Links(graph.NodeID(u)); !slices.Equal(got, want) {
						t.Errorf("%s: links of %d = %v, want %v", h.label, u, got, want)
					}
				}
			}
		})
	}
}

// TestPublishSkipsUnchangedState pins the fingerprint gate: republishing a
// state nothing has touched returns the same epoch instead of minting
// snapshots readers already hold.
func TestPublishSkipsUnchangedState(t *testing.T) {
	net, err := NewDynamicNetwork(workload.GoodChain(4))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	first := net.PublishSnapshot()
	second := net.PublishSnapshot()
	if first.Epoch != second.Epoch {
		t.Errorf("idle republication advanced the epoch %d -> %d", first.Epoch, second.Epoch)
	}
	if err := net.AddLink(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	third := net.ReadSnapshot()
	if third.Epoch <= second.Epoch {
		t.Errorf("churned republication kept epoch %d", third.Epoch)
	}
}

// TestPublishCadence pins DynOptions.PublishEvery: epochs advance without
// any AwaitQuiescence or PublishSnapshot call once churn has changed the
// state.
func TestPublishCadence(t *testing.T) {
	net, err := NewDynamicNetworkWith(workload.GoodChain(6), DynOptions{PublishEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	base := net.ReadSnapshot().Epoch
	if err := net.AddLink(0, 3); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for net.ReadSnapshot().Epoch <= base {
		if time.Now().After(deadline) {
			t.Fatal("cadence publisher never advanced the epoch")
		}
		time.Sleep(time.Millisecond)
	}
	if s := net.ReadSnapshot(); !s.Quiescent {
		t.Error("cadence publication was not quiescence-gated")
	}
}

// TestBadPublishCadence pins option validation.
func TestBadPublishCadence(t *testing.T) {
	_, err := NewDynamicNetworkWith(workload.GoodChain(3), DynOptions{PublishEvery: -time.Second})
	if err == nil {
		t.Fatal("negative PublishEvery accepted")
	}
}

// TestReadPathAllocationFree pins the serving read path's allocation
// bound: an epoch read plus a buffered route walk allocates nothing.
func TestReadPathAllocationFree(t *testing.T) {
	net, err := NewDynamicNetwork(workload.GoodChain(64))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	buf := make([]graph.NodeID, 0, 64)
	if allocs := testing.AllocsPerRun(200, func() {
		s := net.ReadSnapshot()
		path, ok := s.RouteInto(63, 0, 64, buf)
		if !ok || len(path) != 64 {
			t.Fatal("route lost on the quiesced chain")
		}
	}); allocs != 0 {
		t.Errorf("read path allocates %v objects per route, want 0", allocs)
	}
}

// TestReadersVsChurnStress is the race-enabled reader-vs-churn pin: eight
// readers route continuously from lock-free epoch snapshots while the
// control plane flaps grid edges and adds/fails chords, with the cadence
// publisher running. Every snapshot a reader observes must be quiescent,
// route every node (the churn script preserves connectivity, and at most
// one grid edge — never a bridge — is missing at any quiescent instant),
// and carry a non-decreasing epoch.
func TestReadersVsChurnStress(t *testing.T) {
	for _, c := range dynEngines(t) {
		topo := workload.Grid(6, 6)
		opts := c.opts
		opts.PublishEvery = 200 * time.Microsecond
		net, err := NewDynamicNetworkWith(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AwaitQuiescence(); err != nil {
			t.Fatal(err)
		}
		n := 36
		stopRead := make(chan struct{})
		var wg sync.WaitGroup
		errc := make(chan error, 8)
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				buf := make([]graph.NodeID, 0, n)
				lastEpoch := uint64(0)
				for {
					select {
					case <-stopRead:
						return
					default:
					}
					s := net.ReadSnapshot()
					if s.Epoch < lastEpoch {
						errc <- fmt.Errorf("epoch went backward: %d after %d", s.Epoch, lastEpoch)
						return
					}
					lastEpoch = s.Epoch
					if !s.Quiescent {
						errc <- fmt.Errorf("published snapshot not quiescent (epoch %d)", s.Epoch)
						return
					}
					src := graph.NodeID(rng.Intn(n))
					if _, ok := s.RouteInto(src, s.Dest, n, buf); !ok {
						errc <- fmt.Errorf("epoch %d: no route %d -> %d", s.Epoch, src, s.Dest)
						return
					}
				}
			}(int64(r + 1))
		}
		// Control plane: flap real grid edges (sequentially, so the graph
		// is never missing more than one) and add/fail chords.
		edges := topo.Graph.Edges()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 60; i++ {
			e := edges[rng.Intn(len(edges))]
			if err := net.FailLink(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			if err := net.AddLink(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				if err := net.AddLink(u, v); err == nil {
					if err := net.FailLink(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			if i%10 == 0 {
				if err := net.AwaitQuiescence(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := net.AwaitQuiescence(); err != nil {
			t.Fatal(err)
		}
		close(stopRead)
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Errorf("%s: reader: %v", c.name, err)
		}
		net.Stop()
	}
}

// newFlapGrid starts a quiesced r×c grid on two block shards over a
// reliable network and returns it with an interior link whose failure
// leaves both endpoints a route, so a flap of it takes no step.
func newFlapGrid(tb testing.TB, r, c int) (*DynamicNetwork, graph.NodeID, graph.NodeID) {
	tb.Helper()
	net, err := NewDynamicNetworkWith(workload.Grid(r, c), DynOptions{Shards: 2, Partition: PartitionBlock})
	if err != nil {
		tb.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		tb.Fatal(err)
	}
	u := graph.NodeID((r/2)*c + c/2)
	return net, u, u + 1
}

// flapLink fails the link {u,v} and adds it back, awaiting quiescence —
// and so publishing an epoch — after each.
func flapLink(tb testing.TB, net *DynamicNetwork, u, v graph.NodeID) {
	if err := net.FailLink(u, v); err != nil {
		tb.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		tb.Fatal(err)
	}
	if err := net.AddLink(u, v); err != nil {
		tb.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		tb.Fatal(err)
	}
}

// TestChurnPublishAllocs pins that a publication costs O(what changed),
// not O(n): one flap of an interior link, through both publications it
// causes, allocates the same on a 64×64 grid as on a 32×32 one. A
// publication that copied the heights, rebuilt the adjacency or built a
// per-node slice would allocate in proportion to the node count.
func TestChurnPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const runs = 20
	var allocs []float64
	for _, k := range []int{32, 64} {
		net, u, v := newFlapGrid(t, k, k)
		flapLink(t, net, u, v) // warm-up
		before := net.ReadSnapshot()
		allocs = append(allocs, testing.AllocsPerRun(runs, func() { flapLink(t, net, u, v) }))
		after := net.ReadSnapshot()
		net.Stop()
		// AllocsPerRun adds a warm-up call of its own.
		if want := before.Epoch + 2*(runs+1); after.Epoch != want {
			t.Fatalf("%d×%d: epoch %d after the flaps, want %d (one publication per await)", k, k, after.Epoch, want)
		}
		if after.Steps != before.Steps {
			t.Fatalf("%d×%d: the flaps took %d steps, want none", k, k, after.Steps-before.Steps)
		}
	}
	t.Logf("allocs per flap: 32×32 %.1f, 64×64 %.1f", allocs[0], allocs[1])
	if d := math.Abs(allocs[1] - allocs[0]); d > 3 {
		t.Errorf("allocs per flap grow with the network: 32×32 %.1f, 64×64 %.1f", allocs[0], allocs[1])
	}
	if allocs[1] > 40 {
		t.Errorf("allocs per flap = %.1f, want ≤ 40", allocs[1])
	}
}

// BenchmarkChurnPublish measures one link flap through publication: fail,
// await (publishing an epoch), add, await. It is the per-layer row behind
// a churn op's time to a published epoch.
func BenchmarkChurnPublish(b *testing.B) {
	for _, g := range []struct{ r, c int }{{100, 100}, {316, 317}} {
		b.Run(fmt.Sprintf("grid-%dx%d", g.r, g.c), func(b *testing.B) {
			net, u, v := newFlapGrid(b, g.r, g.c)
			defer net.Stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flapLink(b, net, u, v)
			}
		})
	}
}

// BenchmarkRouteInto measures the serving read path on a published
// snapshot: one RouteInto from a uniformly drawn source to the
// destination, into a reused buffer.
func BenchmarkRouteInto(b *testing.B) {
	for _, g := range []struct{ r, c int }{{100, 100}, {316, 317}} {
		b.Run(fmt.Sprintf("grid-%dx%d", g.r, g.c), func(b *testing.B) {
			net, _, _ := newFlapGrid(b, g.r, g.c)
			defer net.Stop()
			s := net.ReadSnapshot()
			n := s.NumNodes()
			rng := rand.New(rand.NewSource(1))
			srcs := make([]graph.NodeID, 4096)
			for i := range srcs {
				srcs[i] = graph.NodeID(rng.Intn(n))
			}
			buf := make([]graph.NodeID, 0, n)
			hops := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path, ok := s.RouteInto(srcs[i%len(srcs)], s.Dest, n, buf)
				if !ok {
					b.Fatalf("no route from %d", srcs[i%len(srcs)])
				}
				hops += len(path) - 1
			}
			b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
		})
	}
}
