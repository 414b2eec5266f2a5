package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"linkreversal/internal/graph"
	"linkreversal/internal/trace"
	"linkreversal/internal/workload"
)

// TestProfileMatchesTraceReplay: the per-node profile counters
// (Options.Profile == ProfileOn) must agree exactly with the ground truth
// obtained by replaying the recorded trace on the sequential twin — per
// node, not just in aggregate — under every engine configuration.
func TestProfileMatchesTraceReplay(t *testing.T) {
	for _, topo := range []*workload.Topology{
		workload.AlternatingChain(12),
		workload.RandomConnected(16, 0.3, 7),
	} {
		for _, alg := range allAlgorithms() {
			for _, opts := range testEngines(t) {
				opts := opts
				opts.Profile = ProfileOn
				t.Run(topo.Name+"/"+alg.String()+"/"+engineName(opts), func(t *testing.T) {
					t.Parallel()
					in := topo.MustInit()
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					defer cancel()
					res, err := RunWith(ctx, in, alg, opts)
					if err != nil {
						t.Fatal(err)
					}
					if res.NodeSteps == nil || res.NodeReversals == nil {
						t.Fatal("ProfileOn run returned nil per-node counters")
					}
					twin, _, err := sequentialTwin(alg, in)
					if err != nil {
						t.Fatal(err)
					}
					profile, err := trace.WorkProfileFromSteps(twin, res.Trace)
					if err != nil {
						t.Fatal(err)
					}
					var steps, work int64
					for u := range res.NodeSteps {
						steps += res.NodeSteps[u]
						work += res.NodeReversals[u]
						if got, want := int(res.NodeReversals[u]), profile.NodeCost(graph.NodeID(u)); got != want {
							t.Errorf("node %d reversals = %d, replay says %d", u, got, want)
						}
					}
					if int(steps) != res.Stats.Steps || int(work) != res.Stats.TotalReversals {
						t.Errorf("profile sums (steps %d, work %d) != stats (%d, %d)",
							steps, work, res.Stats.Steps, res.Stats.TotalReversals)
					}
				})
			}
		}
	}
}

// TestProfileOffLeavesResultBare: the default keeps the counters nil.
func TestProfileOffLeavesResultBare(t *testing.T) {
	in := workload.BadChain(6).MustInit()
	res, err := Run(context.Background(), in, FullReversal)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeSteps != nil || res.NodeReversals != nil {
		t.Errorf("ProfileOff run carries per-node counters: %v / %v", res.NodeSteps, res.NodeReversals)
	}
}

// TestProfileOptionValidated: out-of-range Profile values are ErrBadOption.
func TestProfileOptionValidated(t *testing.T) {
	in := workload.BadChain(4).MustInit()
	_, err := RunWith(context.Background(), in, FullReversal, Options{Profile: Profile(42)})
	if !errors.Is(err, ErrBadOption) {
		t.Errorf("error = %v, want ErrBadOption", err)
	}
}
