package experiments

import (
	"fmt"

	"linkreversal/internal/core"
	"linkreversal/internal/mc"
	"linkreversal/internal/trace"
	"linkreversal/internal/workload"
)

// E12Exhaustive enumerates the complete reachable state space of every
// variant on small worst-case instances, verifying the full invariant suite
// on each state (the model-checked form of "in any reachable state").
// Alongside the verdicts, the state-space sizes themselves are a result:
// FR's quadratic re-reversal work shows up as a reachable space that dwarfs
// PR's on FR's worst case, while NewPR's history counters enlarge its space
// relative to OneStepPR on PR's worst case.
func E12Exhaustive(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E12 (extension): exhaustive reachable-state verification",
		"topology", "variant", "states", "transitions", "max-depth", "violations")
	topos := []*workload.Topology{
		workload.BadChain(6),
		workload.AlternatingChain(6),
		workload.Star(6),
		workload.Ladder(3),
	}
	for _, topo := range topos {
		in, err := topo.Init()
		if err != nil {
			return nil, err
		}
		for _, v := range core.Variants {
			res, err := mc.Explore(v.New(in), mc.Options{Invariants: v.Invariants})
			if err != nil {
				return nil, fmt.Errorf("E12 %s/%s: %w", topo.Name, v.Name, err)
			}
			tb.MustAddRow(trace.S(topo.Name), trace.S(v.Name), trace.I(res.States),
				trace.I(res.Transitions), trace.I(res.MaxDepth), trace.I(0))
		}
	}
	return tb, nil
}
