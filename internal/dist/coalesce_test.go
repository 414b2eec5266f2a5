package dist

import (
	"context"
	"testing"
	"time"

	"linkreversal/internal/automaton"
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// dupHeavy is an adversary that duplicates aggressively and does nothing
// else, so every difference between a coalesced and an uncoalesced run is
// attributable to duplicate folding alone.
func dupHeavy(seed int64) *faults.Adversary {
	return faults.New(faults.Duplicate{P: 0.5, Extra: 3}, seed)
}

// TestCoalescingConfluence pins the coalescing contract: folding duplicate
// transmissions at the shard outbox may change transport volume and nothing
// else. A duplication-heavy adversarial run under hash partitioning (so
// most duplicates cross a shard boundary) must produce, with coalescing on
// and off, identical final orientations and an identical protocol and
// fault ledger — while actually coalescing something when on and nothing
// when off — and the coalesced run's trace must still replay verbatim on
// the sequential automaton. The reference is a one-shard run, which has no
// shard boundary and so neither crosses nor coalesces anything; one node
// per shard, where every transmission crosses a boundary, must match it
// too. Full Reversal keeps every counter a pure function of (topology,
// seed), so the ledgers are compared exactly.
func TestCoalescingConfluence(t *testing.T) {
	in, err := workload.Grid(5, 5).Init()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	run := func(opts Options) *Result {
		opts.Adversary = dupHeavy(7)
		res, err := RunWith(ctx, in, FullReversal, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on := run(Options{Shards: 4, Partition: PartitionHash, Coalesce: CoalesceOn})
	off := run(Options{Shards: 4, Partition: PartitionHash, Coalesce: CoalesceOff})
	ref := run(Options{Shards: 1})
	perNode := run(Options{Shards: perNodeShards})

	if !on.Final.Equal(off.Final) || !on.Final.Equal(ref.Final) || !perNode.Final.Equal(ref.Final) {
		t.Error("final orientations diverged between coalescing modes or shard counts")
	}
	// The entire ledger — protocol work and fault traffic — must be
	// untouched by coalescing; only the transport counters (Batches, and
	// Coalesced itself) may differ.
	a, b := on.Stats, off.Stats
	a.Batches, b.Batches = 0, 0
	a.Coalesced, b.Coalesced = 0, 0
	if a != b {
		t.Errorf("coalescing changed the ledger:\n  on  %+v\n  off %+v", on.Stats, off.Stats)
	}
	if on.Stats.Coalesced == 0 {
		t.Error("coalesce-on run folded nothing; dup adversary plus hash partition should repeat cross-shard links")
	}
	if off.Stats.Coalesced != 0 {
		t.Errorf("coalesce-off run reports %d coalesced transmissions, want 0", off.Stats.Coalesced)
	}
	if on.Stats.Remote != off.Stats.Remote {
		t.Errorf("Remote differs across coalescing modes: on %d, off %d (counted pre-coalescing, must match)",
			on.Stats.Remote, off.Stats.Remote)
	}
	if ref.Stats.Remote != 0 || ref.Stats.Coalesced != 0 {
		t.Errorf("one-shard run reports Remote=%d Coalesced=%d, want 0,0 (no shard boundary)",
			ref.Stats.Remote, ref.Stats.Coalesced)
	}
	for _, r := range []*Result{on, perNode} {
		if r.Stats.Drops != ref.Stats.Drops || r.Stats.Dups != ref.Stats.Dups ||
			r.Stats.Held != ref.Stats.Held || r.Stats.Retransmits != ref.Stats.Retransmits ||
			r.Stats.Acks != ref.Stats.Acks {
			t.Errorf("fault ledger diverged from the one-shard reference:\n  got %+v\n  ref %+v",
				r.Stats, ref.Stats)
		}
	}

	// The coalesced run's linearization is still a legal sequential
	// execution landing on the same final orientation.
	twin, invs, err := sequentialTwin(FullReversal, in)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range on.Trace {
		if err := twin.Step(automaton.ReverseNode{U: u}); err != nil {
			t.Fatalf("replay step %d (node %d): %v", i, u, err)
		}
	}
	if err := automaton.CheckAll(twin, invs); err != nil {
		t.Fatalf("final replay state: %v", err)
	}
	if !twin.Orientation().Equal(on.Final) {
		t.Error("sequential replay diverged from the coalesced run's final orientation")
	}
}

// TestCoalescedSteadyStateAllocs is TestShardedSteadyStateAllocs's
// fault-plane companion: with an adversary armed, the coalescing map joins
// the hot path, and its per-transmission lookup must not allocate in the
// steady state. The check is differential — the same duplication-heavy run
// with coalescing on and off — so the injector's own costs cancel and the
// budget isolates what coalescing added (essentially the map's high-water
// bucket growth, paid once per run).
func TestCoalescedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const nb = 128
	in := workload.BadChain(nb).MustInit()
	var finals []*graph.Orientation
	measure := func(coalesce Coalescing) float64 {
		run := func() {
			res, err := RunWith(context.Background(), in, FullReversal, Options{
				Shards:      3,
				RecordTrace: TraceOff,
				Coalesce:    coalesce,
				Adversary:   dupHeavy(3),
			})
			if err != nil {
				t.Fatal(err)
			}
			finals = append(finals, res.Final)
		}
		run() // warm-up
		return testing.AllocsPerRun(5, run)
	}
	offAllocs := measure(CoalesceOff)
	onAllocs := measure(CoalesceOn)
	t.Logf("allocs/run: coalesce-off = %.0f, coalesce-on = %.0f", offAllocs, onAllocs)
	if extra := onAllocs - offAllocs; extra > 150 {
		t.Errorf("coalescing adds %.0f allocs/run over the uncoalesced path; map touches the steady state", extra)
	}
	for _, f := range finals[1:] {
		if !f.Equal(finals[0]) {
			t.Fatal("final orientations diverged across measured runs")
		}
	}
}
