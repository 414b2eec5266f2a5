package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	lr "linkreversal"
	"linkreversal/internal/dist"
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
	"linkreversal/internal/trace"
)

// repairSpec is one static-repair workload: a seeded topology and an
// optional seeded network adversary, repaired by dist-PR on the sharded
// engine. Shards are pinned to 2 so the exact counts do not depend on the
// machine's core count.
type repairSpec struct {
	topology  func(s sizes, seed int64) *lr.Topology
	adversary func(seed int64) *lr.NetworkAdversary
}

var gridRepair = repairSpec{
	topology:  func(s sizes, _ int64) *lr.Topology { return lr.Grid(s.GridSide, s.GridSide) },
	adversary: func(int64) *lr.NetworkAdversary { return nil },
}

var lossyTreeRepair = repairSpec{
	topology:  func(s sizes, seed int64) *lr.Topology { return lr.Tree(s.TreeN, seed) },
	adversary: lr.FlakyNetwork,
}

func (rs repairSpec) options(seed int64) lr.DistOptions {
	return lr.DistOptions{
		Engine:      lr.DistSharded,
		Shards:      2,
		Partition:   lr.DistPartitionBlock,
		RecordTrace: lr.DistTraceOff,
		Adversary:   rs.adversary(seed),
	}
}

// repairCounts are the exact counts of a repair; confluence makes them a
// function of the input and seed alone, so they must repeat bit for bit.
// Batches and Coalesced depend on flush timing and are left out.
func repairCounts(rep *lr.DistReport) map[string]int64 {
	return map[string]int64{
		"steps":       int64(rep.Steps),
		"messages":    int64(rep.Messages),
		"reversals":   int64(rep.TotalReversals),
		"drops":       int64(rep.Drops),
		"dups":        int64(rep.Dups),
		"held":        int64(rep.Held),
		"retransmits": int64(rep.Retransmits),
		"acks":        int64(rep.Acks),
		"remote":      int64(rep.Remote),
	}
}

// checkRepair validates one repair result: acyclic, destination-oriented,
// and the same exact counts as the run's first repair.
func checkRepair(rep *lr.DistReport, err error, want map[string]int64) error {
	if err != nil {
		return err
	}
	if !rep.Acyclic || !rep.DestinationOriented {
		return fmt.Errorf("repair result acyclic=%v destination-oriented=%v", rep.Acyclic, rep.DestinationOriented)
	}
	got := repairCounts(rep)
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("exact count %s = %d, first repair had %d", k, got[k], v)
		}
	}
	return nil
}

// setupTopology generates the workload's topology e.size.Setups times and
// returns the last one with the median generation time.
func (rs repairSpec) setupTopology(e *env) (*lr.Topology, float64) {
	var topo *lr.Topology
	times := make([]float64, e.size.Setups)
	for i := range times {
		t := time.Now()
		topo = rs.topology(e.size, e.seed)
		times[i] = seconds(time.Since(t))
	}
	return topo, median(times)
}

// runRepair measures RunDistributedWith end to end: one warm-up call, then
// back-to-back timed calls for as long as another call is expected to end
// inside the window.
func (rs repairSpec) run(ctx context.Context, e *env) (*outcome, error) {
	if e.traced {
		return rs.runTraced(ctx, e)
	}
	o := newOutcome()
	topo, setup := rs.setupTopology(e)
	opts := rs.options(e.seed)

	warm, err := lr.RunDistributedWith(ctx, topo, lr.DistPR, opts)
	if o.record(checkRepair(warm, err, nil)) != nil {
		return o, nil
	}
	want := repairCounts(warm)
	o.counts = want

	var lat trace.LatencyProfile
	var lats []time.Duration
	var busy time.Duration
	var allocMB []float64
	for len(lats) == 0 || busy+lat.Quantile(0.5) <= e.window {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := memAlloc()
		t := time.Now()
		rep, err := lr.RunDistributedWith(ctx, topo, lr.DistPR, opts)
		d := time.Since(t)
		alloc := memAlloc() - before
		if o.record(checkRepair(rep, err, want)) != nil {
			return o, nil
		}
		lat.Record(d)
		lats = append(lats, d)
		busy += d
		allocMB = append(allocMB, float64(alloc)/1e6)
	}
	s, q := summarize(&lat), quiet(callSlices(lats))
	o.values = map[string]float64{
		"setup_s":         setup,
		"op_p50_ms":       millis(q.P50),
		"ops_per_s":       q.OpsPerS,
		"alloc_mb_per_op": median(allocMB),
		"max_rss_mb":      selfMaxRSSMB(),
	}
	fmt.Fprintf(e.log, "repair: %d timed calls, p50 %v, %s %v; quietest %d: p50 %v\n", s.N, s.P50.Round(time.Millisecond),
		quantileLabel(s.TailQ), s.Tail.Round(time.Millisecond), q.N, q.P50.Round(time.Millisecond))
	return o, nil
}

// tracedRounds is the fewest rounds a traced repair run makes, so that its
// medians do not rest on one sample of a drifting host.
const tracedRounds = 3

// runTraced measures the layers a repair is made of by calling them one at
// a time — topology generation, core.Init, dist.RunWith, the graph checks —
// next to an untraced RunDistributedWith call they should add up to, plus
// a RunWith with an armed Observer for the per-shard telemetry. Rounds
// repeat while another is expected to fit the window, and at least
// tracedRounds times; values are medians over rounds. Each round's layer
// sum is set against its own untraced call, since the host's speed drifts
// between rounds.
func (rs repairSpec) runTraced(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	sp := e.spans
	h := sp.begin("workload.gen", 0, -1)
	t := time.Now()
	topo := rs.topology(e.size, e.seed)
	gen := seconds(time.Since(t))
	sp.end(h)
	opts := rs.options(e.seed)

	var (
		e2e, initS, runS, verifyS, allocMB, overhead, explained []float64
		calls                                                   trace.LatencyProfile
		round                                                   time.Duration
		start                                                   = time.Now()
		last                                                    map[string]float64
	)
	for id := int64(1); id <= tracedRounds || time.Since(start)+round <= e.window; id++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		roundStart := time.Now()

		// Each side of the layer sum starts from a collected heap, so neither
		// pays for garbage the other left.
		runtime.GC()
		h := sp.begin("repair.call", id, -1)
		t := time.Now()
		rep, err := lr.RunDistributedWith(ctx, topo, lr.DistPR, opts)
		d := time.Since(t)
		sp.end(h)
		calls.Record(d)
		e2e = append(e2e, seconds(d))
		if o.record(checkRepair(rep, err, o.counts)) != nil {
			return o, nil
		}
		if o.counts == nil {
			o.counts = repairCounts(rep)
		}

		runtime.GC()
		root := sp.begin("repair.layers", id, -1)
		h = sp.begin("core.init", id, root)
		t = time.Now()
		in, err := topo.Init()
		init := seconds(time.Since(t))
		sp.end(h)
		initS = append(initS, init)
		if o.record(err) != nil {
			return o, nil
		}
		before := memAlloc()
		h = sp.begin("dist.run", id, root)
		t = time.Now()
		res, err := dist.RunWith(ctx, in, dist.PartialReversal, opts)
		run := seconds(time.Since(t))
		sp.end(h)
		alloc := memAlloc() - before
		if o.record(err) != nil {
			return o, nil
		}
		runS = append(runS, run)
		allocMB = append(allocMB, float64(alloc)/1e6)
		h = sp.begin("graph.verify", id, root)
		t = time.Now()
		ok := graph.IsAcyclic(res.Final) && graph.IsDestinationOriented(res.Final, topo.Dest)
		verify := seconds(time.Since(t))
		sp.end(h)
		sp.end(root)
		verifyS = append(verifyS, verify)
		explained = append(explained, (init+run+verify)/seconds(d))
		if o.record(errIf(!ok, "layer-by-layer repair is not acyclic and destination-oriented")) != nil {
			return o, nil
		}

		observed := opts
		observed.Observer = obs.New()
		h = sp.begin("dist.run.observed", id, -1)
		t = time.Now()
		ores, err := dist.RunWith(ctx, in, dist.PartialReversal, observed)
		orun := seconds(time.Since(t))
		sp.end(h)
		if o.record(err) != nil {
			return o, nil
		}
		overhead = append(overhead, orun/run-1)
		last = shardMetrics(ores.Shards, ores.Stats)
		round = time.Since(roundStart)
	}

	o.values = zeroValues(perLayer)
	for k, v := range last {
		o.values[k] = v
	}
	o.values["workload.gen_s"] = gen
	o.values["core.init_s"] = median(initS)
	o.values["dist.run_s"] = median(runS)
	o.values["graph.verify_s"] = median(verifyS)
	o.values["dist.alloc_mb"] = median(allocMB)
	o.values["obs.overhead_frac"] = median(overhead)
	o.values["layers_explained_frac"] = median(explained)
	o.values["op_tail_ms"] = millis(summarize(&calls).Tail)
	if rs.adversary(e.seed) != nil {
		h := sp.begin("faults.judge", 0, -1)
		o.values["faults.judge_ns"] = judgeNS(e.seed, e.size.JudgeCalls)
		sp.end(h)
	}
	fmt.Fprintf(e.log, "repair layers: %d rounds, untraced call %.3f s, init %.3f + run %.3f + verify %.3f s\n",
		len(e2e), median(e2e), median(initS), median(runS), median(verifyS))
	return o, nil
}

// shardMetrics derives the engine's per-layer metrics from an observed
// run's shard telemetry and its exact statistics.
func shardMetrics(shards []obs.ShardStats, st dist.Stats) map[string]float64 {
	var busy, idle, maxBusy, nacks, batches, batchMsgs int64
	var runq, mailbox int64
	engine := 0
	for _, s := range shards {
		nacks += s.Nacks
		if s.Shard < 0 {
			continue
		}
		engine++
		busy += s.BusyNS
		idle += s.IdleNS
		maxBusy = max(maxBusy, s.BusyNS)
		batches += s.Batches
		batchMsgs += s.BatchMsgs
		runq = max(runq, s.RunQueuePeak)
		mailbox = max(mailbox, s.MailboxPeak)
	}
	m := map[string]float64{
		"dist.shard_busy_s":  float64(busy) / 1e9,
		"dist.shard_idle_s":  float64(idle) / 1e9,
		"dist.runqueue_peak": float64(runq),
		"dist.mailbox_peak":  float64(mailbox),
		"faults.drops":       float64(st.Drops),
		"faults.dups":        float64(st.Dups),
		"faults.held":        float64(st.Held),
		"faults.retransmits": float64(st.Retransmits),
		"faults.acks":        float64(st.Acks),
		"faults.nacks":       float64(nacks),
		"faults.useful_frac": float64(st.Messages) / float64(st.Messages+st.Retransmits+st.Acks+st.Dups),
		"dist.remote_frac":   float64(st.Remote) / float64(st.Messages),
	}
	if busy > 0 {
		m["dist.shard_busy_max_over_mean"] = float64(maxBusy) * float64(engine) / float64(busy)
	}
	if st.Remote+st.Coalesced > 0 {
		m["dist.coalesced_frac"] = float64(st.Coalesced) / float64(st.Remote+st.Coalesced)
	}
	if batches > 0 {
		m["dist.batch_fill"] = float64(batchMsgs) / float64(batches)
	}
	return m
}

// judgeNS times Injector.Judge under the Flaky preset, in ns per call,
// over calls distinct transmissions.
func judgeNS(seed int64, calls int) float64 {
	in := faults.NewInjector(faults.Flaky(seed))
	t := time.Now()
	for i := 0; i < calls; i++ {
		in.Judge(faults.Link{From: graph.NodeID(i & 1023), To: graph.NodeID(i >> 10)}, faults.Msg{Seq: uint64(i)})
	}
	return float64(time.Since(t)) / float64(calls)
}
