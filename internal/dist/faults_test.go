package dist

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"linkreversal/internal/automaton"
	"linkreversal/internal/faults"
	"linkreversal/internal/workload"
)

// presetAdversaries returns the scenario library at a fixed seed.
func presetAdversaries(seed int64) []*faults.Adversary {
	return []*faults.Adversary{
		faults.Lossy(seed),
		faults.Flaky(seed),
		faults.Adversarial(seed),
	}
}

// TestFaultyRunsMatchFaultFree is the confluence check under every preset
// adversary: loss, duplication, delay and reorder may change the schedule
// but never the final orientation — any divergence from the fault-free run
// is a bug in the reliable-delivery layer.
func TestFaultyRunsMatchFaultFree(t *testing.T) {
	for _, topo := range []*workload.Topology{
		workload.BadChain(12),
		workload.Grid(4, 5),
		workload.Tree(24, 9),
		workload.RandomConnected(20, 0.25, 5),
	} {
		in, err := topo.Init()
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range allAlgorithms() {
			ref, err := RunWith(context.Background(), in, alg, Options{})
			if err != nil {
				t.Fatalf("%s/%v: fault-free reference: %v", topo.Name, alg, err)
			}
			for _, adv := range presetAdversaries(7) {
				for _, opts := range []Options{
					{Shards: perNodeShards, Adversary: adv},
					{Shards: 3, Adversary: adv},
				} {
					topo, alg, adv, opts := topo, alg, adv, opts
					name := fmt.Sprintf("%s/%v/%s/%v", topo.Name, alg, adv.Scenario, engineName(opts))
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
						defer cancel()
						res, err := RunWith(ctx, in, alg, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Final.Equal(ref.Final) {
							t.Error("adversarial run diverged from the fault-free final orientation")
						}
						if res.Stats.TotalReversals != ref.Stats.TotalReversals {
							t.Errorf("adversarial reversals %d != fault-free %d",
								res.Stats.TotalReversals, ref.Stats.TotalReversals)
						}
						if res.Stats.Messages != res.Stats.TotalReversals {
							t.Errorf("messages %d != reversals %d: retransmissions are not messages",
								res.Stats.Messages, res.Stats.TotalReversals)
						}
						if res.Stats.Messages > 0 && res.Stats.Acks == 0 {
							t.Error("traffic flowed but no acknowledgements were sent")
						}
						if res.Stats.Drops > 0 && res.Stats.Retransmits == 0 {
							t.Errorf("%d payload+ack drops but zero retransmissions", res.Stats.Drops)
						}
					})
				}
			}
		}
	}
}

// TestLossyLargeTopologies is the scale acceptance check: with the Lossy
// preset (15% drop) on chain, grid and tree topologies up to 10k nodes,
// both the finest shard layout the tests afford (perNodeShards) and the
// default must terminate via retransmission with the exact fault-free
// final orientation. Partial Reversal keeps the work linear at this size.
func TestLossyLargeTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node adversarial runs are not short")
	}
	for _, topo := range []*workload.Topology{
		workload.BadChain(10000),
		workload.Grid(100, 100),
		workload.Tree(10000, 3),
	} {
		in, err := topo.Init()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunWith(context.Background(), in, PartialReversal, Options{})
		if err != nil {
			t.Fatalf("%s: fault-free reference: %v", topo.Name, err)
		}
		for _, opts := range []Options{
			{Shards: perNodeShards, Adversary: faults.Lossy(11)},
			{Adversary: faults.Lossy(11)},
		} {
			topo, opts := topo, opts
			t.Run(topo.Name+"/"+engineName(opts), func(t *testing.T) {
				t.Parallel()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				res, err := RunWith(ctx, in, PartialReversal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Final.Equal(ref.Final) {
					t.Error("lossy run diverged from the fault-free final orientation")
				}
				if res.Stats.Drops == 0 || res.Stats.Retransmits == 0 {
					t.Errorf("lossy 10k run saw %d drops, %d retransmits; adversary inactive?",
						res.Stats.Drops, res.Stats.Retransmits)
				}
			})
		}
	}
}

// dupHeavy is an adversary that duplicates aggressively and does nothing
// else, so most of its transmissions repeat on a link within one flush
// window.
func dupHeavy(seed int64) *faults.Adversary {
	a := faults.New(faults.Duplicate{P: 0.5, Extra: 3}, seed)
	a.Scenario = "dup-heavy"
	return a
}

// TestFaultReplayDeterminism pins the (scenario, seed) replay contract on
// Full Reversal, whose message pattern is schedule independent: two runs
// with the same seed must agree on every fault counter and on the final
// orientation — byte-identical behaviour — across shard layouts, so every
// layout shares one fault ledger, while a different seed must make
// different decisions.
func TestFaultReplayDeterminism(t *testing.T) {
	in, err := workload.Grid(6, 6).Init()
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func(int64) *faults.Adversary{faults.Lossy, faults.Flaky, faults.Adversarial, dupHeavy} {
		runStats := func(opts Options) Stats {
			res, err := RunWith(context.Background(), in, FullReversal, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}
		adv := mk(42)
		t.Run(adv.Scenario, func(t *testing.T) {
			a := runStats(Options{Shards: perNodeShards, Adversary: mk(42)})
			b := runStats(Options{Shards: perNodeShards, Adversary: mk(42)})
			// Batches is the schedule-dependent counter: it counts
			// transport handoffs.
			a.Batches, b.Batches = 0, 0
			if a != b {
				t.Errorf("same seed, different stats:\n  %+v\n  %+v", a, b)
			}
			s := runStats(Options{Shards: 4, Adversary: mk(42)})
			if a.Drops != s.Drops || a.Dups != s.Dups || a.Held != s.Held ||
				a.Retransmits != s.Retransmits || a.Acks != s.Acks {
				t.Errorf("fault decisions differ across shard layouts:\n  per node %+v\n  4 shards %+v", a, s)
			}
			other := runStats(Options{Shards: perNodeShards, Adversary: mk(43)})
			if a.Drops == other.Drops && a.Retransmits == other.Retransmits && a.Dups == other.Dups {
				t.Logf("seeds 42 and 43 coincided on all counters (possible but unlikely): %+v", a)
			}
		})
	}
}

// TestAdversarialTraceReplaysSequentially is the crosscheck under the most
// hostile preset: the recorded step linearization of an adversarial run
// must replay verbatim on the matching sequential automaton, with the
// paper's invariant suite holding in every traversed state and the replay
// landing exactly on the distributed final orientation. This is the
// machine-checked form of "the reliable-delivery layer preserves the
// safety argument under loss, duplication and reordering".
func TestAdversarialTraceReplaysSequentially(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for _, topo := range []*workload.Topology{
			workload.RandomConnected(14, 0.3, seed),
			workload.AlternatingChain(9),
		} {
			in, err := topo.Init()
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range allAlgorithms() {
				for _, opts := range []Options{
					{Shards: perNodeShards, Adversary: faults.Adversarial(seed)},
					{Shards: 3, Adversary: faults.Adversarial(seed)},
				} {
					topo, alg, opts, seed := topo, alg, opts, seed
					name := fmt.Sprintf("%s/%v/seed%d/%v", topo.Name, alg, seed, engineName(opts))
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
						defer cancel()
						res, err := RunWith(ctx, in, alg, opts)
						if err != nil {
							t.Fatal(err)
						}
						twin, invs, err := sequentialTwin(alg, in)
						if err != nil {
							t.Fatal(err)
						}
						for i, u := range res.Trace {
							if err := twin.Step(automaton.ReverseNode{U: u}); err != nil {
								t.Fatalf("replay step %d (node %d): %v", i, u, err)
							}
							if err := automaton.CheckAll(twin, invs); err != nil {
								t.Fatalf("after step %d (node %d): %v", i, u, err)
							}
						}
						if !twin.Quiescent() {
							t.Error("sequential replay not quiescent after full adversarial trace")
						}
						if !twin.Orientation().Equal(res.Final) {
							t.Error("sequential replay diverged from the adversarial final orientation")
						}
					})
				}
			}
		}
	}
}

// TestAdversaryOptionValidation pins ErrBadOption for malformed fault
// scenarios threaded through Options.Adversary.
func TestAdversaryOptionValidation(t *testing.T) {
	in, err := workload.BadChain(4).Init()
	if err != nil {
		t.Fatal(err)
	}
	bad := []*faults.Adversary{
		{},                                // no policy
		{Policy: faults.Drop{P: 1.5}},     // probability out of range
		{Policy: faults.DropFirst{K: -1}}, // negative targeted count
		faults.New(faults.Chain{nil}, 1),  // nil link in the chain
		{Policy: faults.Drop{P: 0.1}, RetryBudget: -1},
	}
	for _, adv := range bad {
		_, err := RunWith(context.Background(), in, FullReversal, Options{Adversary: adv})
		if !errors.Is(err, ErrBadOption) {
			t.Errorf("adversary %+v: err = %v, want ErrBadOption", adv, err)
		}
	}
	for _, adv := range presetAdversaries(1) {
		if _, err := RunWith(context.Background(), in, FullReversal, Options{Adversary: adv}); err != nil {
			t.Errorf("%s preset rejected: %v", adv.Scenario, err)
		}
	}
}

// TestCancelWithHeldMessages pins prompt cancellation while transmissions
// sit in the delay adversary's holdback queues: a run whose every message
// is held back many deliveries must still abort on ctx cancellation
// without waiting for the holdbacks to unwind naturally.
func TestCancelWithHeldMessages(t *testing.T) {
	in, err := workload.BadChain(3000).Init()
	if err != nil {
		t.Fatal(err)
	}
	// Every transmission held back up to 200 deliveries: the network is
	// permanently full of parked messages when the deadline hits.
	adv := faults.New(faults.Delay{P: 1, Bound: 200}, 5)
	for _, opts := range []Options{
		{Shards: perNodeShards, Adversary: adv},
		{Shards: 3, Adversary: adv},
	} {
		opts := opts
		t.Run(engineName(opts), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := RunWith(ctx, in, FullReversal, opts)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > 10*time.Second {
				t.Errorf("cancellation with held messages took %v, want prompt return", elapsed)
			}
		})
	}
}

// TestFaultStatsZeroOnReliableNetwork checks the fault counters stay zero
// without an adversary — the reliable path must not pay for the subsystem.
func TestFaultStatsZeroOnReliableNetwork(t *testing.T) {
	in, err := workload.Grid(4, 4).Init()
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range testEngines(t) {
		opts.Adversary = nil
		res, err := RunWith(context.Background(), in, PartialReversal, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.Drops != 0 || s.Dups != 0 || s.Retransmits != 0 || s.Acks != 0 {
			t.Errorf("reliable run has fault stats %+v", s)
		}
	}
}

// FuzzFaultsConfluence mutates (seed, drop rate, delay bound, duplication)
// across random topologies and every shard setting of agreeVariants,
// asserting the adversarial run always lands on the sequential automaton's
// final orientation and reversal count — the CI fuzz target of the fault
// subsystem.
func FuzzFaultsConfluence(f *testing.F) {
	f.Add(uint8(8), uint8(30), int64(1), uint8(20), uint8(3), uint8(0), uint8(1))
	f.Add(uint8(20), uint8(60), int64(-9), uint8(90), uint8(8), uint8(200), uint8(0))
	f.Add(uint8(3), uint8(0), int64(77), uint8(0), uint8(0), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, rawN, rawP uint8, seed int64, dropPct, delayBound, rawDup, rawAlg uint8) {
		n := 2 + int(rawN)%24
		p := float64(rawP%100) / 100.0
		alg := allAlgorithms()[int(rawAlg)%3]
		adv := faults.New(faults.Chain{
			faults.Drop{P: float64(dropPct%95) / 100.0},
			faults.Duplicate{P: float64(rawDup%100) / 100.0},
			faults.Delay{P: 0.5, Bound: 1 + int(delayBound)%12},
		}, seed)
		topo := workload.RandomConnected(n, p, seed)
		in, err := topo.Init()
		if err != nil {
			t.Fatal(err)
		}
		want, wantRev := sequentialFinal(t, alg, in)
		for _, opts := range agreeVariants {
			opts.Adversary = adv
			requireSequentialFinal(t, in, alg, opts, want, wantRev)
		}
	})
}
