package dist

import (
	"errors"
	"slices"
	"testing"
	"time"

	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// requireCut asserts that err is a *PartitionError naming exactly want,
// and that ErrPartitioned matches it.
func requireCut(t *testing.T, err error, want []graph.NodeID) {
	t.Helper()
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("await = %v, want *PartitionError", err)
	}
	if !slices.Equal(pe.Cut, want) {
		t.Fatalf("cut = %v, want %v", pe.Cut, want)
	}
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partition error does not match ErrPartitioned: %v", err)
	}
}

// maxHeightMagnitudes returns the largest |A| and |B| over live nodes.
func maxHeightMagnitudes(s *Snapshot) (maxA, maxB int) {
	for u, h := range s.Heights {
		if s.Removed(graph.NodeID(u)) {
			continue
		}
		a, b := h.H.A, h.H.B
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		maxA = max(maxA, a)
		maxB = max(maxB, b)
	}
	return maxA, maxB
}

// TestPartitionExactAndNoRatchet is the acceptance test for the
// reflection-based detection: cutting the same chain link for several
// cycles must (a) report exactly the orphaned suffix every time, (b) stay
// within a small constant height envelope — the old ceiling heuristic
// ground |A| up to 8n+64 before reporting, and without erasure each cycle
// started where the last one ended — and (c) spend per-cycle steps on the
// order of the island, not of 8n reversals.
func TestPartitionExactAndNoRatchet(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			const n = 8
			topo := workload.GoodChain(n)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			wantCut := []graph.NodeID{4, 5, 6, 7}
			prevSteps := net.Snapshot().Steps
			for cycle := 0; cycle < 4; cycle++ {
				if err := net.FailLink(3, 4); err != nil {
					t.Fatalf("cycle %d cut: %v", cycle, err)
				}
				requireCut(t, net.AwaitQuiescence(), wantCut)
				if err := net.AddLink(3, 4); err != nil {
					t.Fatalf("cycle %d heal: %v", cycle, err)
				}
				if err := net.AwaitQuiescence(); err != nil {
					t.Fatalf("cycle %d after heal: %v", cycle, err)
				}
				s := net.Snapshot()
				// The old heuristic pushed |A| past 8n+64 = 128 every cycle
				// and kept ratcheting; with reflection plus erasure the
				// envelope is a small constant multiple of the pre-cut
				// heights (|B| ≤ n at start) on every cycle.
				maxA, maxB := maxHeightMagnitudes(s)
				if maxA > 10 || maxB > 2*n {
					t.Fatalf("cycle %d: heights ratcheted to |A|=%d |B|=%d", cycle, maxA, maxB)
				}
				steps := s.Steps - prevSteps
				prevSteps = s.Steps
				if steps > 150 {
					t.Fatalf("cycle %d: %d steps, want O(island), not an 8n grind", cycle, steps)
				}
				requireRoutes(t, s, n, topo.Dest)
			}
		})
	}
}

// TestPartitionIsolatedNode documents the degree-zero case: a node with no
// links never becomes a sink, so no protocol signal fires — but it is cut
// off all the same, and the report must name it.
func TestPartitionIsolatedNode(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			topo := workload.Star(5)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			if err := net.FailLink(0, 4); err != nil {
				t.Fatal(err)
			}
			requireCut(t, net.AwaitQuiescence(), []graph.NodeID{4})
			s := net.Snapshot()
			if _, ok := s.RouteInto(4, 0, 10, nil); ok {
				t.Error("isolated leaf should have no route")
			}
			if _, ok := s.RouteInto(3, 0, 10, nil); !ok {
				t.Error("connected leaf lost its route")
			}
			if err := net.AddLink(0, 4); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatalf("await after re-attach: %v", err)
			}
		})
	}
}

// TestPartitionSplitsAreExact cuts a grid into two halves and checks that
// the report names exactly the destination-less half, not merely "some
// partition somewhere".
func TestPartitionSplitsAreExact(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			// 2×3 grid, dest 0: cutting {1,4} and {3,4} and {0,3} … cut the
			// column seam instead: edges (1,2) and (4,5) isolate {2,5}.
			topo := workload.Grid(2, 3)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			if err := net.FailLink(1, 2); err != nil {
				t.Fatal(err)
			}
			if err := net.FailLink(4, 5); err != nil {
				t.Fatal(err)
			}
			requireCut(t, net.AwaitQuiescence(), []graph.NodeID{2, 5})
			if err := net.AddLink(4, 5); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatalf("await after heal: %v", err)
			}
			requireRoutes(t, net.Snapshot(), 6, topo.Dest)
		})
	}
}

// TestPartitionCrashStall is the exactness hole no protocol signal covers:
// an island containing a crashed node can quiesce silently — the reflection
// wave dies at the frozen node, nobody detects, nobody parks. The
// topology-validated report must still name the island.
func TestPartitionCrashStall(t *testing.T) {
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
			if err := net.Crash(4); err != nil {
				t.Fatal(err)
			}
			if err := net.FailLink(2, 3); err != nil {
				t.Fatal(err)
			}
			requireCut(t, net.AwaitQuiescence(), []graph.NodeID{3, 4, 5})
			if err := net.AddLink(2, 3); err != nil {
				t.Fatal(err)
			}
			if err := net.Recover(4); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatalf("await after heal+recover: %v", err)
			}
			requireRoutes(t, net.Snapshot(), 6, topo.Dest)
		})
	}
}

// awaitWithin runs AwaitQuiescence and fails the test if it has not
// returned within d. A hung await holds the network's lock, so the caller
// must not Stop the network after a failure here.
func awaitWithin(t *testing.T, net *DynamicNetwork, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- net.AwaitQuiescence() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("AwaitQuiescence did not return within %v", d)
		return nil
	}
}

// TestRemoveDuringDetection removes a node while its own partition
// detection runs. RemoveNode clears the node's marks, but the node keeps
// running until its removal message arrives; a detected or suspended mark
// it set in that window would outlive it, since erasure skips dead nodes,
// and the await after the heal would loop forever on it. The script is
// repeated because the window is a race; one shard reproduced it on the
// first try.
func TestRemoveDuringDetection(t *testing.T) {
	configs := append(dynEngines(t), dynConfig{name: "1 shard", opts: DynOptions{Shards: 1, Adversary: testAdversary(t)}})
	for _, c := range configs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < 20; i++ {
				net, err := NewDynamicNetworkWith(workload.GoodChain(3), c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := awaitWithin(t, net, 10*time.Second); err != nil {
					t.Fatal(err)
				}
				if err := net.FailLink(0, 1); err != nil {
					t.Fatal(err)
				}
				if err := net.RemoveNode(1); err != nil {
					t.Fatal(err)
				}
				requireCut(t, awaitWithin(t, net, 10*time.Second), []graph.NodeID{2})
				net.mu.Lock()
				marked := net.detected.Test(1) || net.suspended.Test(1) || net.cut.Test(1)
				net.mu.Unlock()
				if marked {
					t.Fatalf("iteration %d: removed node 1 still carries a partition mark", i)
				}
				if err := net.AddLink(0, 2); err != nil {
					t.Fatal(err)
				}
				if err := awaitWithin(t, net, 10*time.Second); err != nil {
					t.Fatalf("iteration %d: await after heal = %v", i, err)
				}
				net.Stop()
			}
		})
	}
}

// TestCeilingBackstopResumes drives the runaway backstop: commit parks a
// node whose next height would pass the ceiling, and AwaitQuiescence,
// finding every node still reachable, raises the ceiling and pokes the
// parked nodes until the repair completes. The ceiling is forced below
// every height, and the slack that a raise grants is cut to 1, so the
// failure's first reference level parks at once and the repair runs
// through many raise-and-poke rounds.
func TestCeilingBackstopResumes(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			topo := workload.GoodChain(40)
			net, err := NewDynamicNetworkWith(topo, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AddLink(39, 0); err != nil {
				t.Fatal(err)
			}
			if err := awaitWithin(t, net, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			net.mu.Lock()
			net.ceiling, net.ceilingB, net.slack = -1, -1, 1
			net.mu.Unlock()
			if err := net.FailLink(20, 21); err != nil {
				t.Fatal(err)
			}
			// Node 21 lost its last route, and the reference level it defines
			// passes the ceiling; nothing but a poke moves it again.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				net.mu.Lock()
				parked := net.suspended.count
				net.mu.Unlock()
				if parked > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no node parked at the ceiling")
				}
			}
			if err := awaitWithin(t, net, 30*time.Second); err != nil {
				t.Fatalf("await after the park = %v", err)
			}
			net.mu.Lock()
			parked := net.suspended.count
			net.mu.Unlock()
			if parked != 0 {
				t.Errorf("%d nodes still parked after a clean await", parked)
			}
			requireRoutes(t, net.ReadSnapshot(), 40, topo.Dest)
		})
	}
}
