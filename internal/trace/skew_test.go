package trace

import (
	"math"
	"testing"

	"linkreversal/internal/graph"
)

// TestSkew pins the imbalance measure: peak·active/total, 1 for even work,
// rising toward the active-node count as one node absorbs everything.
func TestSkew(t *testing.T) {
	cases := []struct {
		name  string
		costs map[graph.NodeID]int
		want  float64
	}{
		{"empty", nil, 0},
		{"even", map[graph.NodeID]int{1: 5, 2: 5, 3: 5}, 1},
		{"single", map[graph.NodeID]int{4: 9}, 1},
		{"concentrated", map[graph.NodeID]int{1: 8, 2: 1, 3: 1}, 8 * 3.0 / 10.0},
	}
	for _, tc := range cases {
		p := &WorkProfile{perNode: tc.costs}
		if got := p.Skew(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Skew = %v, want %v", tc.name, got, tc.want)
		}
	}
}
