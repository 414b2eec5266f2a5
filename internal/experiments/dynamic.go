package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"linkreversal/internal/dist"
	"linkreversal/internal/graph"
	"linkreversal/internal/trace"
	"linkreversal/internal/workload"
)

// E11DistributedChurn drives the dynamic protocol through a link churn
// sequence on the sharded runtime (GOMAXPROCS shards) and reports repair cost
// in reversal steps and messages per event — the fully distributed
// counterpart of E10. The message count is the quantity a deployment pays
// for; it should track the reversal count with a constant broadcast factor
// (each reversal announces the new height to every live neighbour). Cuts
// that partition the graph are reported exactly by AwaitQuiescence and
// healed; the cut-size column records how many nodes the reports named in
// total, and with CLR-style erasure on heal the repair cost per event stays
// flat however many partitions a run hits.
func E11DistributedChurn(s Suite) (*trace.Table, error) {
	tb := trace.NewTable("E11 (extension): distributed repair under churn",
		"n", "events", "steps/event", "messages/event", "partitions-healed", "cut-nodes")
	for _, n := range s.Sizes {
		topo := workload.RandomConnected(n, 0.25, int64(n)+17)
		net, err := dist.NewDynamicNetworkWith(topo, dist.DynOptions{Adversary: s.Faults})
		if err != nil {
			return nil, err
		}
		if err := net.AwaitQuiescence(); err != nil {
			net.Stop()
			return nil, fmt.Errorf("E11 n=%d initial: %w", n, err)
		}
		base := net.ReadSnapshot()
		rng := rand.New(rand.NewSource(int64(n)))
		edges := topo.Graph.Edges()
		removed := make(map[graph.Edge]bool)
		events := 3 * n
		healed, cutNodes := 0, 0
		for i := 0; i < events; i++ {
			e := edges[rng.Intn(len(edges))]
			if removed[e] {
				err = net.AddLink(e.U, e.V)
				delete(removed, e)
			} else {
				err = net.FailLink(e.U, e.V)
				removed[e] = true
			}
			if err != nil {
				net.Stop()
				return nil, fmt.Errorf("E11 n=%d event %d: %w", n, i, err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				var pe *dist.PartitionError
				if errors.As(err, &pe) {
					// The cut partitioned the graph; heal and continue.
					cutNodes += len(pe.Cut)
					if err := net.AddLink(e.U, e.V); err != nil {
						net.Stop()
						return nil, err
					}
					delete(removed, e)
					healed++
					if err := net.AwaitQuiescence(); err != nil && !errors.Is(err, dist.ErrPartitioned) {
						net.Stop()
						return nil, err
					}
					continue
				}
				net.Stop()
				return nil, fmt.Errorf("E11 n=%d event %d await: %w", n, i, err)
			}
		}
		final := net.ReadSnapshot()
		net.Stop()
		tb.MustAddRow(trace.I(n), trace.I(events),
			trace.F(float64(final.Steps-base.Steps)/float64(events)),
			trace.F(float64(final.Messages-base.Messages)/float64(events)),
			trace.I(healed), trace.I(cutNodes))
	}
	return tb, nil
}
