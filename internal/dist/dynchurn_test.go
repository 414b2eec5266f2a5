package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// TestNodeChurnGrowAndShrink adds a node at runtime, wires it in, removes
// an interior node, and requires clean quiescence with full routes at each
// stage — under every test configuration.
func TestNodeChurnGrowAndShrink(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			topo := workload.Grid(3, 3)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			id, err := net.AddNode()
			if err != nil {
				t.Fatal(err)
			}
			if id != 9 {
				t.Fatalf("new node id = %d, want 9", id)
			}
			if err := net.AddLink(id, 8); err != nil {
				t.Fatal(err)
			}
			if err := net.AddLink(id, 0); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatalf("await after grow: %v", err)
			}
			s := net.Snapshot()
			requireRoutes(t, s, 10, topo.Dest)
			if got := s.Links(id); len(got) != 2 {
				t.Fatalf("new node links = %v", got)
			}
			// Remove the grid centre; the ring around it keeps the grid
			// connected.
			if err := net.RemoveNode(4); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatalf("await after shrink: %v", err)
			}
			s = net.Snapshot()
			if !s.Removed(4) {
				t.Error("snapshot does not mark node 4 removed")
			}
			if got := s.Links(4); len(got) != 0 {
				t.Errorf("removed node keeps links %v", got)
			}
			requireRoutes(t, s, 10, topo.Dest)
		})
	}
}

// TestRemoveNodeCanPartition removes a cut vertex: the orphaned suffix
// must be reported exactly, and healing around the hole must converge.
func TestRemoveNodeCanPartition(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			topo := workload.GoodChain(5)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			if err := net.RemoveNode(2); err != nil {
				t.Fatal(err)
			}
			requireCut(t, net.AwaitQuiescence(), []graph.NodeID{3, 4})
			// Heal around the hole.
			if err := net.AddLink(1, 3); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatalf("await after bypass: %v", err)
			}
			requireRoutes(t, net.Snapshot(), 5, topo.Dest)
		})
	}
}

// TestCrashRecoveryResumesFromSnapshot crashes a node, changes the
// topology around it while it is dark, and checks that recovery — which
// carries the control plane's authoritative neighbourhood snapshot — puts
// it back in sync: clean quiescence, full routes.
func TestCrashRecoveryResumesFromSnapshot(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			topo := workload.Grid(3, 3)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			if err := net.Crash(4); err != nil {
				t.Fatal(err)
			}
			// Topology changes the crashed node never hears about directly:
			// it loses a link and gains one.
			if err := net.FailLink(4, 5); err != nil {
				t.Fatal(err)
			}
			if err := net.AddLink(2, 4); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatalf("await during crash window: %v", err)
			}
			if err := net.Recover(4); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatalf("await after recover: %v", err)
			}
			s := net.Snapshot()
			requireRoutes(t, s, 9, topo.Dest)
			want := []graph.NodeID{1, 2, 3, 7}
			got := s.Links(4)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("recovered node links = %v, want %v", got, want)
			}
		})
	}
}

// orientationString renders the snapshot's derived edge directions in a
// canonical form for comparison across shard layouts.
func orientationString(s *Snapshot, n int) string {
	out := ""
	for u := 0; u < n; u++ {
		for _, v := range s.Links(graph.NodeID(u)) {
			if graph.NodeID(u) < v {
				dir := "->"
				if s.Heights[u].Less(s.Heights[v]) {
					dir = "<-"
				}
				out += fmt.Sprintf("%d%s%d ", u, dir, v)
			}
		}
	}
	return out
}

// dynChurnScript drives one deterministic churn script — link flaps, cuts
// and heals, node add/remove, crash/recover, with a quiescence barrier
// after every event — and returns the final orientation. Partition reports
// are part of the observable behaviour: the script records each cut
// component and heals it.
func dynChurnScript(c dynConfig, seed int64) (string, error) {
	topo := workload.RandomConnected(14, 0.3, seed)
	net, err := NewDynamicNetworkWith(topo, c.opts)
	if err != nil {
		return "", err
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		return "", err
	}
	out := ""
	await := func(tag string) error {
		err := net.AwaitQuiescence()
		var pe *PartitionError
		if errors.As(err, &pe) {
			out += fmt.Sprintf("%s:cut%v ", tag, pe.Cut)
			return nil
		}
		return err
	}
	rng := rand.New(rand.NewSource(seed * 101))
	edges := topo.Graph.Edges()
	removed := make(map[graph.Edge]bool)
	for i := 0; i < 30; i++ {
		e := edges[rng.Intn(len(edges))]
		if removed[e] {
			net.AddLink(e.U, e.V)
			delete(removed, e)
		} else {
			net.FailLink(e.U, e.V)
			removed[e] = true
		}
		if err := net.AwaitQuiescence(); err != nil {
			var pe *PartitionError
			if !errors.As(err, &pe) {
				return "", err
			}
			out += fmt.Sprintf("e%d:cut%v ", i, pe.Cut)
			net.AddLink(e.U, e.V)
			delete(removed, e)
			if err := await(fmt.Sprintf("e%d+", i)); err != nil {
				return "", err
			}
		}
		switch i {
		case 9:
			id, err := net.AddNode()
			if err != nil {
				return "", err
			}
			if err := net.AddLink(id, topo.Dest); err != nil {
				return "", err
			}
			if err := await("grow"); err != nil {
				return "", err
			}
		case 14:
			if err := net.Crash(7); err != nil {
				return "", err
			}
		case 19:
			if err := net.Recover(7); err != nil {
				return "", err
			}
			if err := await("recover"); err != nil {
				return "", err
			}
		case 24:
			if err := net.RemoveNode(11); err != nil {
				return "", err
			}
			if err := await("shrink"); err != nil {
				return "", err
			}
		}
	}
	for e := range removed {
		net.AddLink(e.U, e.V)
	}
	if err := await("final"); err != nil {
		return "", err
	}
	// A crash can leave a component silently cut; the script always heals,
	// so by here quiescence must be clean.
	if err := net.AwaitQuiescence(); err != nil {
		return "", err
	}
	if err := unreadAtRest(net.rt); err != nil {
		return "", err
	}
	s := net.Snapshot()
	return out + "| " + orientationString(s, 15), nil
}

// TestDynEnginesAgreeOnFinal runs the full churn script — link and node
// churn, partitions, crash windows — under several shard layouts and
// requires the observable behaviour of a one-shard reference, which has no
// shard boundary: the same partition reports with the same cut
// components, and the same final orientation. The reference is rerun
// first, so a nondeterministic script shows up as such.
func TestDynEnginesAgreeOnFinal(t *testing.T) {
	adv := testAdversary(t)
	one := dynConfig{name: "1 shard", opts: DynOptions{Shards: 1, Adversary: adv}}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ref, err := dynChurnScript(one, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []dynConfig{
				one,
				{name: "3 shards", opts: DynOptions{Shards: 3, Adversary: adv}},
				{name: "5 shards, hash", opts: DynOptions{Shards: 5, Partition: PartitionHash, Adversary: adv}},
				{name: "one node per shard", opts: DynOptions{Shards: perNodeShards, Adversary: adv}},
			} {
				got, err := dynChurnScript(c, seed)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if got != ref {
					t.Errorf("%s diverged\nref: %s\ngot: %s", c.name, ref, got)
				}
			}
		})
	}
}
