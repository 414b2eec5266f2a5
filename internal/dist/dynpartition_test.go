package dist

import (
	"errors"
	"slices"
	"testing"

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
			net, err := NewDynamicNetworkWith(topo, c.on(topo))
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
			net, err := NewDynamicNetworkWith(topo, c.on(topo))
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
			if _, ok := s.RouteFrom(4, 0, 10); ok {
				t.Error("isolated leaf should have no route")
			}
			if _, ok := s.RouteFrom(3, 0, 10); !ok {
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
			net, err := NewDynamicNetworkWith(topo, c.on(topo))
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
			net, err := NewDynamicNetworkWith(topo, c.on(topo))
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
