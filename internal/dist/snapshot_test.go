package dist

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// snapClone deep-copies the observable content of a snapshot so a later
// comparison can prove the original never mutated.
func snapClone(s *Snapshot) *Snapshot {
	c := *s
	c.Heights = append([]DynHeight(nil), s.Heights...)
	c.Cut = append([]graph.NodeID(nil), s.Cut...)
	c.dead = append([]bool(nil), s.dead...)
	c.adj = make([][]graph.NodeID, len(s.adj))
	for i, nbrs := range s.adj {
		c.adj[i] = append([]graph.NodeID(nil), nbrs...)
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
		if want.dead[u] != got.dead[u] {
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
