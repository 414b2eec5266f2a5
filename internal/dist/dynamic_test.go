package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
	"linkreversal/internal/sched"
	"linkreversal/internal/workload"
)

// dynConfig is one DynamicNetwork configuration of the test matrix.
type dynConfig struct {
	name string
	opts DynOptions
}

// dynEngines returns the DynamicNetwork configurations exercised by this
// test process, the dynamic counterparts of testEngines: one node per
// shard, and three shards — so cross-shard batching is exercised on any
// machine — under the partition scheme selected by LR_DIST_PARTITION. Both
// carry the fault adversary selected by LR_DIST_FAULTS.
func dynEngines(t testing.TB) []dynConfig {
	adv := testAdversary(t)
	return []dynConfig{
		{name: perNodeName, opts: DynOptions{Shards: perNodeShards, Adversary: adv}},
		{name: "sharded", opts: DynOptions{Shards: 3, Partition: testPartition(t), Adversary: adv}},
	}
}

// TestDynamicShardsClamped pins the shard-count rule the dynamic plane
// shares with RunWith: Shards is clamped to the initial node count, so an
// oversized request runs one node per shard, not thousands of empty shards
// with a shard-sized outbox table each. Nodes added later join the last
// shard, and Stop takes every goroutine down again.
func TestDynamicShardsClamped(t *testing.T) {
	const n = 4
	baseline := runtime.NumGoroutine()
	net, err := NewDynamicNetworkWith(workload.GoodChain(n), DynOptions{Shards: 4096, PublishEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	peak := runtime.NumGoroutine()
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	id, err := net.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink(id, n-1); err != nil {
		t.Fatal(err)
	}
	peak = max(peak, runtime.NumGoroutine())
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatalf("await after AddNode = %v", err)
	}
	peak = max(peak, runtime.NumGoroutine())
	// Two goroutines per shard, one cadence publisher, and slack for the
	// runtime's own.
	if limit := baseline + 2*n + 1 + 4; peak > limit {
		t.Errorf("goroutine peak %d > %d (baseline %d + 2·%d shards + publisher + slack)", peak, limit, baseline, n)
	}
	net.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// requireRoutes asserts that every node of the snapshot's destination
// component reaches dst by following decreasing heights.
func requireRoutes(t *testing.T, s *Snapshot, n int, dst graph.NodeID) {
	t.Helper()
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		if s.Removed(id) || (len(s.Links(id)) == 0 && id != dst) {
			continue // removed and isolated nodes have no route by definition
		}
		if _, ok := s.RouteInto(id, dst, n+1, nil); !ok {
			t.Errorf("no route %d → %d", u, dst)
		}
	}
}

// TestDynamicInitialConvergence starts the network on assorted topologies
// under every configuration and checks that it quiesces with a route from every
// node.
func TestDynamicInitialConvergence(t *testing.T) {
	for _, c := range dynEngines(t) {
		for _, topo := range []*workload.Topology{
			workload.BadChain(10),
			workload.Star(9),
			workload.Grid(3, 4),
			workload.RandomConnected(16, 0.25, 5),
		} {
			c, topo := c, topo
			t.Run(fmt.Sprintf("%s/%s", c.name, topo.Name), func(t *testing.T) {
				t.Parallel()
				net, err := NewDynamicNetworkWith(topo, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Stop()
				if err := net.AwaitQuiescence(); err != nil {
					t.Fatal(err)
				}
				s := net.Snapshot()
				requireRoutes(t, s, topo.Graph.NumNodes(), topo.Dest)
				if s.Messages < s.TotalReversals {
					t.Errorf("messages %d < reversals %d", s.Messages, s.TotalReversals)
				}
			})
		}
	}
}

// TestDynamicRepairIsGBPair checks the static part of the network's repair
// against the paper's automaton: from the initial orientation the network
// quiesces with every node still at the zero reference level, at exactly
// the heights core.GBPair ends at, after as many steps and reversals, under
// every configuration. A sink's view of its neighbours is exact — a
// neighbour above a sink is no sink and cannot move — so every
// asynchronous run is a schedule of the sequential automaton.
func TestDynamicRepairIsGBPair(t *testing.T) {
	for _, c := range dynEngines(t) {
		for _, topo := range []*workload.Topology{
			workload.BadChain(8),
			workload.AlternatingChain(7),
			workload.Grid(4, 4),
			workload.Tree(14, 3),
			workload.RandomConnected(14, 0.3, 2),
			workload.Ring(10, 4),
			workload.Ladder(5),
			workload.Star(8),
			workload.Hypercube(4, 1),
		} {
			c, topo := c, topo
			t.Run(fmt.Sprintf("%s/%s", c.name, topo.Name), func(t *testing.T) {
				t.Parallel()
				gb := core.NewGBPair(topo.MustInit())
				if res, err := sched.Run(gb, sched.Greedy{}, sched.Options{}); err != nil || !res.Quiesced {
					t.Fatalf("GBPair run: quiesced=%v err=%v", res.Quiesced, err)
				}
				net, err := NewDynamicNetworkWith(topo, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Stop()
				if err := net.AwaitQuiescence(); err != nil {
					t.Fatal(err)
				}
				s := net.Snapshot()
				for u, h := range s.Heights {
					if want := gb.Height(graph.NodeID(u)); !h.Lvl.IsZero() || h.H != want {
						t.Errorf("node %d: height %v, GBPair %v", u, h, want)
					}
				}
				if s.Steps != gb.Steps() || s.TotalReversals != gb.TotalReversals() {
					t.Errorf("steps %d, reversals %d; GBPair %d, %d",
						s.Steps, s.TotalReversals, gb.Steps(), gb.TotalReversals())
				}
			})
		}
	}
}

// TestDynamicChurnHeals drives random link failures and recoveries with
// quiescence between events; routes must survive every repair.
func TestDynamicChurnHeals(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			topo := workload.RandomConnected(12, 0.3, 3)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			edges := topo.Graph.Edges()
			removed := make(map[graph.Edge]bool)
			for i := 0; i < 40; i++ {
				e := edges[rng.Intn(len(edges))]
				if removed[e] {
					if err := net.AddLink(e.U, e.V); err != nil {
						t.Fatalf("event %d add: %v", i, err)
					}
					delete(removed, e)
				} else {
					if err := net.FailLink(e.U, e.V); err != nil {
						t.Fatalf("event %d fail: %v", i, err)
					}
					removed[e] = true
				}
				if err := net.AwaitQuiescence(); err != nil {
					if errors.Is(err, ErrPartitioned) {
						// The failure cut the graph: heal and continue.
						if err := net.AddLink(e.U, e.V); err != nil {
							t.Fatalf("event %d heal: %v", i, err)
						}
						delete(removed, e)
						if err := net.AwaitQuiescence(); err != nil && !errors.Is(err, ErrPartitioned) {
							t.Fatalf("event %d after heal: %v", i, err)
						}
						continue
					}
					t.Fatalf("event %d await: %v", i, err)
				}
			}
			// Restore every removed link and require full routing.
			for e := range removed {
				if err := net.AddLink(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			requireRoutes(t, net.Snapshot(), topo.Graph.NumNodes(), topo.Dest)
		})
	}
}

// TestDynamicAddsNewLink adds a chord that was never part of the original
// graph; the endpoints exchange heights to orient it and the network stays
// quiescent and routable.
func TestDynamicAddsNewLink(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			topo := workload.GoodChain(6)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			if err := net.AddLink(0, 5); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			s := net.Snapshot()
			path, ok := s.RouteInto(5, 0, 10, nil)
			if !ok {
				t.Fatal("no route after chord insertion")
			}
			if len(path) != 2 {
				t.Errorf("route 5→0 = %v, want the direct chord", path)
			}
		})
	}
}

// TestDynamicConcurrentControlPlane hammers the same link from two
// goroutines. Individual calls may lose the race (ErrLinkExists /
// ErrNoSuchLink), but the adjacency map and the nodes' neighbour views
// must never desync: once the link is settled present, the network must
// quiesce cleanly with full routes. Removing a rim edge of the wheel never
// cuts the graph, so any partition report here would be view corruption.
func TestDynamicConcurrentControlPlane(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			topo := workload.Wheel(8)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			const u, v = 1, 2
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						if err := net.FailLink(u, v); err != nil && !errors.Is(err, ErrNoSuchLink) {
							t.Errorf("fail: %v", err)
						}
						if err := net.AddLink(u, v); err != nil && !errors.Is(err, ErrLinkExists) {
							t.Errorf("add: %v", err)
						}
					}
				}()
			}
			wg.Wait()
			if err := net.AddLink(u, v); err != nil && !errors.Is(err, ErrLinkExists) {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatalf("await after concurrent churn: %v", err)
			}
			requireRoutes(t, net.Snapshot(), topo.Graph.NumNodes(), topo.Dest)
		})
	}
}

// TestDynamicLinkValidation exercises the control-plane error paths. The
// rejected calls run as one block between two awaits: a rejection that
// counted a token would hang the second await, and one that touched the
// topology would make it publish a new epoch.
func TestDynamicLinkValidation(t *testing.T) {
	net, err := NewDynamicNetwork(workload.GoodChain(5))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	if err := net.RemoveNode(4); err != nil {
		t.Fatal(err)
	}
	if err := net.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := awaitWithin(t, net, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	epoch := net.ReadSnapshot().Epoch
	for _, c := range []struct {
		name string
		err  error
		want error
	}{
		{"self link", net.AddLink(0, 0), ErrSelfLink},
		{"unknown node", net.AddLink(0, 99), ErrUnknownNode},
		{"removed node", net.AddLink(4, 1), ErrUnknownNode},
		{"duplicate link", net.AddLink(0, 1), ErrLinkExists},
		{"absent link", net.FailLink(0, 2), ErrNoSuchLink},
		{"remove unknown", net.RemoveNode(99), ErrUnknownNode},
		{"remove removed", net.RemoveNode(4), ErrUnknownNode},
		{"remove destination", net.RemoveNode(0), ErrDestination},
		{"crash removed", net.Crash(4), ErrUnknownNode},
		{"double crash", net.Crash(2), ErrCrashed},
		{"recover healthy", net.Recover(1), ErrNotCrashed},
	} {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, c.err, c.want)
		}
	}
	if err := awaitWithin(t, net, 10*time.Second); err != nil {
		t.Fatalf("await after the rejected calls = %v", err)
	}
	if got := net.ReadSnapshot().Epoch; got != epoch {
		t.Errorf("epoch %d after the rejected calls, want %d", got, epoch)
	}
	if err := net.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicOptionsValidation pins DynOptions' ErrBadOption cases.
func TestDynamicOptionsValidation(t *testing.T) {
	topo := workload.GoodChain(4)
	for _, opts := range []DynOptions{
		{Engine: Engine(42)},
		{Engine: 1}, // no engine has value 1
		{Partition: Partition(42)},
		{Shards: -1},
	} {
		if _, err := NewDynamicNetworkWith(topo, opts); !errors.Is(err, ErrBadOption) {
			t.Errorf("opts %+v: err = %v, want ErrBadOption", opts, err)
		}
	}
}

// TestDynamicStop checks Stop is idempotent and fails later operations.
func TestDynamicStop(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			topo := workload.GoodChain(4)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			net.Stop()
			net.Stop()
			if err := net.AddLink(0, 2); !errors.Is(err, ErrStopped) {
				t.Errorf("AddLink after Stop = %v, want ErrStopped", err)
			}
			if err := net.FailLink(0, 1); !errors.Is(err, ErrStopped) {
				t.Errorf("FailLink after Stop = %v, want ErrStopped", err)
			}
			if err := net.AwaitQuiescence(); !errors.Is(err, ErrStopped) {
				t.Errorf("AwaitQuiescence after Stop = %v, want ErrStopped", err)
			}
			if _, err := net.AddNode(); !errors.Is(err, ErrStopped) {
				t.Errorf("AddNode after Stop = %v, want ErrStopped", err)
			}
			if err := net.Crash(1); !errors.Is(err, ErrStopped) {
				t.Errorf("Crash after Stop = %v, want ErrStopped", err)
			}
			if err := net.RemoveNode(1); !errors.Is(err, ErrStopped) {
				t.Errorf("RemoveNode after Stop = %v, want ErrStopped", err)
			}
			if err := net.Recover(1); !errors.Is(err, ErrStopped) {
				t.Errorf("Recover after Stop = %v, want ErrStopped", err)
			}
		})
	}
}

// TestSnapshotRouteIntoEdgeCases pins RouteInto's boundary behaviour.
func TestSnapshotRouteIntoEdgeCases(t *testing.T) {
	net, err := NewDynamicNetwork(workload.GoodChain(4))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	s := net.Snapshot()
	if path, ok := s.RouteInto(2, 2, 0, nil); !ok || len(path) != 1 {
		t.Errorf("self route = %v, %v", path, ok)
	}
	if _, ok := s.RouteInto(3, 0, 1, nil); ok {
		t.Error("route should not fit in one hop")
	}
	if _, ok := s.RouteInto(-1, 0, 5, nil); ok {
		t.Error("invalid source accepted")
	}
}

// TestSnapshotAdjacencyCached checks that snapshots with no churn between
// them share every adjacency page (a snapshot copies page pointers, not
// rows), that churn copies only the page it writes, that a node added past
// the last page gets a page of its own, and that snapshots taken before
// churn still show the old links.
func TestSnapshotAdjacencyCached(t *testing.T) {
	// Three pages, so the test can tell the written page from the others.
	net, err := NewDynamicNetwork(workload.Grid(3, adjPageRows))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	s1 := net.Snapshot()
	s2 := net.Snapshot()
	if len(s1.adj) != 3 || len(s2.adj) != 3 {
		t.Fatalf("snapshots hold %d and %d pages, want 3", len(s1.adj), len(s2.adj))
	}
	for p := range s1.adj {
		if s1.adj[p] != s2.adj[p] {
			t.Errorf("consecutive snapshots with no churn do not share page %d", p)
		}
	}
	before := append([]graph.NodeID(nil), s1.Links(0)...)
	if err := net.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	s3 := net.Snapshot()
	if got := s1.Links(0); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("old snapshot mutated by churn: %v, want %v", got, before)
	}
	if len(s3.Links(0)) != len(before)-1 {
		t.Errorf("new snapshot missed the failure: %v", s3.Links(0))
	}
	if s3.adj[0] == s1.adj[0] {
		t.Error("churn wrote a page the earlier snapshots share")
	}
	for p := 1; p < len(s1.adj); p++ {
		if s3.adj[p] != s1.adj[p] {
			t.Errorf("churn on page 0 copied page %d", p)
		}
	}

	// A node added past the last page gets a page of its own; the held
	// snapshot keeps its three pages and the old last row.
	last := graph.NodeID(3*adjPageRows - 1)
	lastBefore := append([]graph.NodeID(nil), s3.Links(last)...)
	id, err := net.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink(id, last); err != nil {
		t.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	s4 := net.Snapshot()
	if len(s4.adj) != 4 || fmt.Sprint(s4.Links(id)) != fmt.Sprint([]graph.NodeID{last}) {
		t.Errorf("after AddNode: %d pages, links of %d = %v; want 4 pages and [%d]", len(s4.adj), id, s4.Links(id), last)
	}
	if len(s3.adj) != 3 || s3.NumNodes() != 3*adjPageRows || s3.Links(id) != nil ||
		fmt.Sprint(s3.Links(last)) != fmt.Sprint(lastBefore) {
		t.Errorf("AddNode changed an earlier snapshot: %d pages, %d nodes, links of %d = %v (want %v)",
			len(s3.adj), s3.NumNodes(), last, s3.Links(last), lastBefore)
	}
}

// TestAwaitQuiescenceAllocFree pins the satellite fix: on the clean path
// (no partition signals, no churn since the last await) AwaitQuiescence
// performs no allocations — degree counts are incremental and the BFS is
// skipped or served from reused scratch.
func TestAwaitQuiescenceAllocFree(t *testing.T) {
	net, err := NewDynamicNetwork(workload.Grid(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := net.AwaitQuiescence(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AwaitQuiescence allocates %v objects on the clean path, want 0", allocs)
	}
}

// TestLinkFlapKeepsView pins the satellite bugfix: a link flap (FailLink
// then AddLink) must resume from the demoted pending view instead of
// relearning the neighbour's height from scratch. White-box: drive one
// dynState by hand and watch the view move nbrs → pending → nbrs.
func TestLinkFlapKeepsView(t *testing.T) {
	net, err := NewDynamicNetwork(workload.GoodChain(4))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	st := &dynState{net: net, id: 1, h: DynHeight{H: net.Snapshot().Heights[1].H}}
	env := discardEnv{}
	h2 := DynHeight{H: net.Snapshot().Heights[2].H}
	st.nbrs.put(nbrView{id: 0, h: net.Snapshot().Heights[0], known: true})
	st.nbrs.put(nbrView{id: 2, h: h2, known: true})
	st.linkDown(env, 2)
	if _, ok := st.nbrs.get(2); ok {
		t.Fatal("failed neighbour still in nbrs")
	}
	p, ok := st.pending.get(2)
	if !ok || !p.known || p.h != h2 {
		t.Fatalf("flap discarded the view: pending entry = %+v, %v", p, ok)
	}
	// The link comes back: the preserved view must be promoted as-is.
	st.handle(env, dynMsg{Kind: dynLinkUp, To: 1, Peer: 2})
	v, ok := st.nbrs.get(2)
	if !ok || !v.known || v.h != h2 {
		t.Fatalf("flap did not restore the view: nbr entry = %+v, %v", v, ok)
	}
	if _, ok := st.pending.get(2); ok {
		t.Error("promoted view still pending")
	}
}

// discardEnv is a dynEnv for white-box dynState tests: transmissions
// vanish, requeues are dropped.
type discardEnv struct{}

func (discardEnv) transmit(*dynState, dynMsg) {}
func (discardEnv) requeue(*dynState, dynMsg)  {}
func (discardEnv) sink() *obs.Shard           { return nil }
