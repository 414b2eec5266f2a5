package dist

import (
	"context"
	"testing"
	"time"

	"linkreversal/internal/workload"
)

// TestTraceOffMatchesTraceOn is the trace-recording confluence check: the
// same topology run with RecordTrace on and off must produce identical
// final orientations and identical Stats — link reversal is confluent, so
// every cost counter except the transport's batch count is a function of
// the input alone, and disabling the trace may change nothing but
// Result.Trace. Batches is excluded from the comparison because the
// sharded engine's flush boundaries depend on goroutine timing in both
// modes.
func TestTraceOffMatchesTraceOn(t *testing.T) {
	for _, topo := range []*workload.Topology{
		workload.BadChain(12),
		workload.Grid(4, 5),
		workload.RandomConnected(24, 0.25, 3),
	} {
		in, err := topo.Init()
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range allAlgorithms() {
			for _, base := range testEngines(t) {
				topo, alg, base := topo, alg, base
				t.Run(topo.Name+"/"+alg.String()+"/"+engineName(base), func(t *testing.T) {
					t.Parallel()
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					defer cancel()
					on, err := RunWith(ctx, in, alg, base)
					if err != nil {
						t.Fatal(err)
					}
					offOpts := base
					offOpts.RecordTrace = TraceOff
					off, err := RunWith(ctx, in, alg, offOpts)
					if err != nil {
						t.Fatal(err)
					}
					if len(on.Trace) != on.Stats.Steps {
						t.Errorf("trace-on trace length %d != steps %d", len(on.Trace), on.Stats.Steps)
					}
					if off.Trace != nil {
						t.Errorf("trace-off run returned a %d-step trace, want nil", len(off.Trace))
					}
					if !off.Final.Equal(on.Final) {
						t.Error("trace-off final orientation diverged from trace-on")
					}
					onStats, offStats := on.Stats, off.Stats
					onStats.Batches, offStats.Batches = 0, 0
					if onStats != offStats {
						t.Errorf("trace-off stats %+v != trace-on %+v (batches ignored)", offStats, onStats)
					}
				})
			}
		}
	}
}

// TestShardedSteadyStateAllocs pins the allocation-free hot path: a sharded
// run with trace recording off must cost only its fixed setup allocations
// (flat node-state arrays, shard structures, channels, goroutines, final
// reassembly), regardless of how many messages it delivers. FR on the
// all-away chain delivers nb² messages through ~nb² receive calls, so any
// steady-state allocation per delivered message — a map touch, an unpooled
// batch, a trace append — blows the budget by orders of magnitude.
func TestShardedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const nb = 256
	in := workload.BadChain(nb).MustInit()
	opts := Options{Shards: 3, RecordTrace: TraceOff}
	measure := func(alg Algorithm, wantMessages int) float64 {
		run := func() {
			res, err := RunWith(context.Background(), in, alg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Messages != wantMessages {
				t.Fatalf("%v: messages = %d, want %d", alg, res.Stats.Messages, wantMessages)
			}
		}
		run() // warm-up
		return testing.AllocsPerRun(5, run)
	}
	// Same topology and engine, wildly different traffic: PR repairs the
	// all-away chain with nb messages, FR with nb². If the per-message path
	// were not allocation-free the FR run would pay ~65k extra allocations;
	// the tolerance only covers buffers growing to a larger high-water mark.
	prAllocs := measure(PartialReversal, nb)
	frAllocs := measure(FullReversal, nb*nb)
	t.Logf("allocs/run: PR(%d msgs) = %.0f, FR(%d msgs) = %.0f", nb, prAllocs, nb*nb, frAllocs)
	if extra := frAllocs - prAllocs; extra > 100 {
		t.Errorf("FR (%d messages) allocates %.0f more than PR (%d messages); hot path regressed",
			nb*nb, extra, nb)
	}
	if budget := 200.0; frAllocs > budget {
		t.Errorf("allocs/run = %.0f > %.0f; engine setup cost regressed", frAllocs, budget)
	}
}
