package hunt

import (
	"fmt"
	"math"

	"linkreversal/internal/workload"
)

// TopoSpec is a constructible description of a workload topology — the
// replayable form of Config.Topo. Unlike a *workload.Topology (an opaque
// built graph), a spec travels inside reproducer artifacts and shrinks:
// the minimizer halves N and re-builds until the breach disappears.
type TopoSpec struct {
	// Kind names the generator: bad-chain, alt-chain, star, ladder, ring,
	// grid, tree or random.
	Kind string `json:"kind"`
	// N is the size parameter, interpreted per kind (bad-node count for the
	// chains, node count otherwise; grid builds the √N×√N square).
	N int `json:"n"`
	// P is the extra-edge probability of the random kind; 0 means 0.3.
	P float64 `json:"p,omitempty"`
	// Seed feeds the seeded generators (ring, tree, random).
	Seed int64 `json:"seed,omitempty"`
}

// minTopoN is the smallest size parameter Build accepts — the shrink floor.
const minTopoN = 2

// Build constructs the topology the spec describes. It keeps its own table
// instead of the batch tools' workload.ByName because replay artifacts fix
// what N means: a grid of size N has sides of √N, where ByName's has sides
// of N.
func (s TopoSpec) Build() (*workload.Topology, error) {
	if s.N < minTopoN {
		return nil, fmt.Errorf("hunt: topology size %d below minimum %d", s.N, minTopoN)
	}
	switch s.Kind {
	case "bad-chain":
		return workload.BadChain(s.N), nil
	case "alt-chain":
		return workload.AlternatingChain(s.N), nil
	case "star":
		return workload.Star(s.N), nil
	case "ladder":
		return workload.Ladder(s.N), nil
	case "ring":
		return workload.Ring(s.N, s.Seed), nil
	case "grid":
		side := int(math.Sqrt(float64(s.N)))
		if side < 2 {
			side = 2
		}
		return workload.Grid(side, side), nil
	case "tree":
		return workload.Tree(s.N, s.Seed), nil
	case "random":
		p := s.P
		if p == 0 {
			p = 0.3
		}
		return workload.RandomConnected(s.N, p, s.Seed), nil
	default:
		return nil, fmt.Errorf("hunt: unknown topology kind %q", s.Kind)
	}
}
