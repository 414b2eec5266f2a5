package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"linkreversal/internal/obs"
	"linkreversal/internal/workload"
)

// TestObserverOffMatchesOn is the observability confluence check: arming
// Options.Observer may change nothing about the run but Result.Shards.
// Final orientations and every Stats counter except the timing-dependent
// batch count must be identical, under every test configuration, with and
// without an adversary — the telemetry hooks observe the execution, they must not
// steer it.
func TestObserverOffMatchesOn(t *testing.T) {
	for _, topo := range []*workload.Topology{
		workload.BadChain(12),
		workload.Grid(4, 5),
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
					off, err := RunWith(ctx, in, alg, base)
					if err != nil {
						t.Fatal(err)
					}
					if off.Shards != nil {
						t.Errorf("observer-off run returned shard stats: %+v", off.Shards)
					}
					onOpts := base
					onOpts.Observer = obs.New()
					on, err := RunWith(ctx, in, alg, onOpts)
					if err != nil {
						t.Fatal(err)
					}
					if !on.Final.Equal(off.Final) {
						t.Error("observer-on final orientation diverged from observer-off")
					}
					onStats, offStats := on.Stats, off.Stats
					onStats.Batches, offStats.Batches = 0, 0
					if onStats != offStats {
						t.Errorf("observer-on stats %+v != observer-off %+v (batches ignored)", onStats, offStats)
					}
					if len(on.Shards) == 0 || on.Shards[len(on.Shards)-1].Shard != -1 {
						t.Fatalf("observer-on shard stats %+v, want >=1 engine shard plus a ctl entry", on.Shards)
					}
				})
			}
		}
	}
}

// TestObserverShardSums cross-checks the per-shard telemetry against the
// run's own aggregate Stats: both count the same execution, so the shard
// sums must reproduce the aggregates exactly — same run, not merely same
// distribution.
func TestObserverShardSums(t *testing.T) {
	in := workload.BadChain(48).MustInit()
	for _, base := range testEngines(t) {
		base := base
		t.Run(engineName(base), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			opts := base
			opts.Observer = obs.New()
			res, err := RunWith(ctx, in, FullReversal, opts)
			if err != nil {
				t.Fatal(err)
			}
			var sum obs.ShardStats
			for _, s := range res.Shards {
				sum.Steps += s.Steps
				sum.Reversals += s.Reversals
				sum.Delivered += s.Delivered
				sum.BatchMsgs += s.BatchMsgs
				sum.Acks += s.Acks
				sum.Retransmits += s.Retransmits
				sum.Events += s.Events
				sum.Sampled += s.Sampled
			}
			st := res.Stats
			if sum.Steps != int64(st.Steps) {
				t.Errorf("shard steps sum %d != Stats.Steps %d", sum.Steps, st.Steps)
			}
			if sum.Reversals != int64(st.TotalReversals) {
				t.Errorf("shard reversals sum %d != Stats.TotalReversals %d", sum.Reversals, st.TotalReversals)
			}
			// Every data message the transport carried (including adversary
			// duplicates) is delivered exactly once past the dedup point it is
			// counted at, so Delivered = Messages + Dups - (drops that were
			// never repaired). On this adversary loss is always repaired:
			// Delivered >= Messages suffices as a sanity floor, equality holds
			// on the reliable sub-run below.
			if sum.Delivered <= 0 {
				t.Errorf("shard delivered sum = %d, want > 0", sum.Delivered)
			}
			if sum.BatchMsgs != int64(st.Remote) {
				t.Errorf("shard batch-message sum %d != Stats.Remote %d", sum.BatchMsgs, st.Remote)
			}
			if sum.Acks != int64(st.Acks) {
				t.Errorf("shard acks sum %d != Stats.Acks %d", sum.Acks, st.Acks)
			}
			if sum.Retransmits != int64(st.Retransmits) {
				t.Errorf("shard retransmits sum %d != Stats.Retransmits %d", sum.Retransmits, st.Retransmits)
			}
			if sum.Sampled != sum.Events {
				t.Errorf("sampled %d != events %d with Sample=1", sum.Sampled, sum.Events)
			}

			// Reliable sub-run: no adversary, so no duplicate deliveries —
			// the delivered count must equal the message count exactly.
			relOpts := Options{Shards: base.Shards, Partition: base.Partition, Observer: obs.New()}
			rel, err := RunWith(ctx, in, FullReversal, relOpts)
			if err != nil {
				t.Fatal(err)
			}
			var delivered int64
			for _, s := range rel.Shards {
				delivered += s.Delivered
			}
			if delivered != int64(rel.Stats.Messages) {
				t.Errorf("reliable run delivered %d != messages %d", delivered, rel.Stats.Messages)
			}
		})
	}
}

// TestRepairOverlapsShards pins the two transport rules on a repair: a PR
// repair of a 64×64 grid on two block shards, where one shard's cascade
// produces the boundary messages. Its first boundary messages must leave
// while that cascade runs, so the run sends at least two batches, and the
// run-queue must hold one generation of the cascade, a grid wavefront,
// not the whole of it (about 4,000 messages).
func TestRepairOverlapsShards(t *testing.T) {
	in := workload.Grid(64, 64).MustInit()
	opts := Options{Shards: 2, Partition: PartitionBlock, RecordTrace: TraceOff, Observer: obs.New()}
	res, err := RunWith(context.Background(), in, PartialReversal, opts)
	if err != nil {
		t.Fatal(err)
	}
	peaks := make([]int64, 0, len(res.Shards))
	for _, s := range res.Shards {
		peaks = append(peaks, s.RunQueuePeak)
		if s.RunQueuePeak >= 128 {
			t.Errorf("shard %d: run-queue generation peaked at %d, want < 128", s.Shard, s.RunQueuePeak)
		}
	}
	t.Logf("%d batches; run-queue peaks by shard (control plane last): %v", res.Stats.Batches, peaks)
	if res.Stats.Batches < 2 {
		t.Errorf("%d cross-shard batches, want ≥ 2: the boundary messages waited for the end of the cascade", res.Stats.Batches)
	}
}

// TestObserverEventsRecorded checks the flight recorder catches the
// protocol: a BadChain FR run is all reversals and deliveries, and with
// Sample=1 and a large ring every one of them is retained up to ring
// capacity.
func TestObserverEventsRecorded(t *testing.T) {
	in := workload.BadChain(16).MustInit()
	for _, base := range testEngines(t) {
		base := base
		t.Run(engineName(base), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			o := obs.New()
			o.RingSize = 1 << 16
			opts := base
			opts.Observer = o
			res, err := RunWith(ctx, in, FullReversal, opts)
			if err != nil {
				t.Fatal(err)
			}
			kinds := map[obs.EventKind]int{}
			for _, ev := range o.Events(0) {
				kinds[ev.Kind]++
			}
			if kinds[obs.EvReversal] != res.Stats.Steps {
				t.Errorf("recorded %d reversal events, want Stats.Steps %d", kinds[obs.EvReversal], res.Stats.Steps)
			}
			if kinds[obs.EvDeliver] == 0 {
				t.Error("no deliver events recorded")
			}
		})
	}
}

// TestDynamicObserver drives the dynamic plane with the recorder armed:
// link churn must land link-down/link-up events, quiescent publication an
// epoch-publish on the control-plane track, and a real partition must fire
// OnDump with reason "partition" — the flight recorder's black-box moment.
func TestDynamicObserver(t *testing.T) {
	for _, c := range dynEngines(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			o := obs.New()
			var dumpReason string
			var dumpEvents []obs.Event
			o.OnDump = func(reason string, events []obs.Event) {
				dumpReason, dumpEvents = reason, events
			}
			topo := workload.GoodChain(8)
			opts := c.opts
			opts.Observer = o
			net, err := NewDynamicNetworkWith(topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Stop()
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}
			// Cut the chain: 4..7 lose the destination.
			if err := net.FailLink(3, 4); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); !errors.Is(err, ErrPartitioned) {
				t.Fatalf("await after cut = %v, want ErrPartitioned", err)
			}
			if dumpReason != "partition" {
				t.Errorf("OnDump reason = %q, want partition", dumpReason)
			}
			if len(dumpEvents) == 0 {
				t.Error("OnDump carried no events")
			}
			// Heal and settle so the final recording has the full story.
			if err := net.AddLink(3, 4); err != nil {
				t.Fatal(err)
			}
			if err := net.AwaitQuiescence(); err != nil {
				t.Fatal(err)
			}

			kinds := map[obs.EventKind]int{}
			ctl := 0
			for _, ev := range o.Events(0) {
				kinds[ev.Kind]++
				if ev.Shard == -1 {
					ctl++
				}
			}
			if kinds[obs.EvLinkDown] == 0 {
				t.Error("no link-down event recorded")
			}
			if kinds[obs.EvLinkUp] == 0 {
				t.Error("no link-up event recorded")
			}
			if kinds[obs.EvEpochPublish] == 0 || ctl == 0 {
				t.Errorf("no epoch-publish on the control-plane track (publish=%d ctl=%d)",
					kinds[obs.EvEpochPublish], ctl)
			}
			if kinds[obs.EvPartitionDetect] == 0 {
				t.Error("no partition-detect event recorded")
			}
			stats := o.ShardStats()
			if len(stats) == 0 || stats[len(stats)-1].Shard != -1 {
				t.Fatalf("dynamic shard stats %+v, want trailing ctl entry", stats)
			}
			var steps int64
			for _, s := range stats {
				steps += s.Steps
			}
			if steps == 0 {
				t.Error("dynamic plane recorded no protocol steps")
			}
		})
	}
}
