// Benchmarks: one testing.B target per experiment (E1–E12), the engine at
// 100k and 1M nodes, and ablations of the design choices that README's
// *Execution engine* and *Performance* sections give the reasons for. Run
// with
//
//	go test -bench=. -benchmem
//
// The experiment tables themselves are regenerated by cmd/lrbench (and
// committed as BENCH_dist.json); the benchmarks here measure the cost of
// each experiment's inner loop so the tables' shapes can be re-derived on
// any machine.
package linkreversal_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	lr "linkreversal"
	"linkreversal/internal/core"
	"linkreversal/internal/dist"
	"linkreversal/internal/graph"
	"linkreversal/internal/mc"
)

// benchRun executes one full centralized run and reports reversals/op.
func benchRun(b *testing.B, topo *lr.Topology, cfg lr.Config) {
	b.Helper()
	b.ReportAllocs()
	total := 0
	for i := 0; i < b.N; i++ {
		rep, err := lr.RunTopology(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += rep.TotalReversals
	}
	b.ReportMetric(float64(total)/float64(b.N), "reversals/op")
}

// BenchmarkE1Acyclicity measures a full NewPR run with the acyclicity
// theorem checked after every step (E1's inner loop).
func BenchmarkE1Acyclicity(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			topo := lr.LayeredDAG(4, n/4, 0.4, 1)
			benchRun(b, topo, lr.Config{Algorithm: lr.NewPR, Scheduler: lr.RandomSingle, CheckInvariants: true})
		})
	}
}

// BenchmarkE2Invariants measures PR runs under the full Section 3
// invariant suite.
func BenchmarkE2Invariants(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			topo := lr.RandomConnected(n, 0.25, 1)
			benchRun(b, topo, lr.Config{Algorithm: lr.PR, Scheduler: lr.RandomSingle, CheckInvariants: true})
		})
	}
}

// BenchmarkE3Simulation measures the three-automata simulation driver with
// both relations checked at every correspondence point.
func BenchmarkE3Simulation(b *testing.B) {
	for _, n := range []int{16, 48} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			topo := lr.RandomConnected(n, 0.25, 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lr.VerifySimulation(topo, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4WorstCase measures the Θ(n_b²) worst cases: FR on the bad
// chain and PR on the alternating chain.
func BenchmarkE4WorstCase(b *testing.B) {
	for _, nb := range []int{32, 128} {
		b.Run(fmt.Sprintf("FR/bad-chain/nb=%d", nb), func(b *testing.B) {
			benchRun(b, lr.BadChain(nb), lr.Config{Algorithm: lr.FR})
		})
		b.Run(fmt.Sprintf("PR/alt-chain/nb=%d", nb), func(b *testing.B) {
			benchRun(b, lr.AlternatingChain(nb), lr.Config{Algorithm: lr.PR})
		})
		b.Run(fmt.Sprintf("PR/bad-chain/nb=%d", nb), func(b *testing.B) {
			benchRun(b, lr.BadChain(nb), lr.Config{Algorithm: lr.PR})
		})
	}
}

// BenchmarkE5PRvsFR measures both algorithms across densities on layered
// DAGs (E5's inner loop).
func BenchmarkE5PRvsFR(b *testing.B) {
	for _, p := range []float64{0.2, 0.8} {
		topo := lr.LayeredDAG(6, 10, p, 3)
		b.Run(fmt.Sprintf("FR/p=%.1f", p), func(b *testing.B) {
			benchRun(b, topo, lr.Config{Algorithm: lr.FR})
		})
		b.Run(fmt.Sprintf("PR/p=%.1f", p), func(b *testing.B) {
			benchRun(b, topo, lr.Config{Algorithm: lr.PR})
		})
	}
}

// BenchmarkE6DummyOverhead measures NewPR against OneStepPR on a
// sink/source-rich topology, isolating the dummy-step cost.
func BenchmarkE6DummyOverhead(b *testing.B) {
	topo := lr.Star(64)
	b.Run("OneStepPR", func(b *testing.B) {
		benchRun(b, topo, lr.Config{Algorithm: lr.OneStepPR, Scheduler: lr.RoundRobin})
	})
	b.Run("NewPR", func(b *testing.B) {
		benchRun(b, topo, lr.Config{Algorithm: lr.NewPR, Scheduler: lr.RoundRobin})
	})
}

// BenchmarkE7SocialCost measures the per-node cost accounting runs of E7.
func BenchmarkE7SocialCost(b *testing.B) {
	topo := lr.Grid(6, 6)
	b.Run("FR", func(b *testing.B) {
		benchRun(b, topo, lr.Config{Algorithm: lr.FR, Scheduler: lr.RandomSingle})
	})
	b.Run("PR", func(b *testing.B) {
		benchRun(b, topo, lr.Config{Algorithm: lr.OneStepPR, Scheduler: lr.RandomSingle})
	})
}

// BenchmarkE8Distributed measures RunDistributed at its default shard count.
func BenchmarkE8Distributed(b *testing.B) {
	for _, n := range []int{16, 64} {
		topo := lr.LayeredDAG(4, n/4, 0.4, 4)
		for _, alg := range []lr.DistAlgorithm{lr.DistFR, lr.DistPR, lr.DistNewPR} {
			b.Run(fmt.Sprintf("%v/n=%d", alg, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := lr.RunDistributed(context.Background(), topo, alg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDistEngines compares the two execution engines — the
// centralized sequential engine and the sharded distributed runtime at its
// default GOMAXPROCS shards — on chain, grid and random-tree topologies up
// to 100k nodes (the ROADMAP's dist throughput benchmark).
// All runs execute Partial Reversal, whose repair work is linear on these
// topologies, so ns/op and allocs/op measure engine overhead rather than
// protocol work; topology construction and core.Init are hoisted out of
// the timed loop for the distributed engines so the engines are measured,
// not the workload setup. The sequential engine rescans all nodes for
// enabled sinks every step, which is quadratic on the chain, so it is
// skipped beyond 10k nodes.
func BenchmarkDistEngines(b *testing.B) {
	topos := func(n int) []*lr.Topology {
		r := 1
		for r*r < n {
			r++
		}
		return []*lr.Topology{
			lr.BadChain(n - 1),
			lr.Grid(r, (n+r-1)/r),
			lr.Tree(n, 1),
		}
	}
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, topo := range topos(n) {
			topo := topo
			b.Run(fmt.Sprintf("%s/n=%d/sequential", topo.Name, n), func(b *testing.B) {
				if n > 10_000 {
					b.Skip("sequential engine rescans all nodes per step; quadratic at this size")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := lr.RunTopology(topo, lr.Config{Algorithm: lr.PR}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/sharded", topo.Name, n), func(b *testing.B) {
				in := topo.MustInit()
				var last *dist.Result
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := dist.RunWith(context.Background(), in, dist.PartialReversal, dist.Options{})
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.StopTimer()
				if !graph.IsDestinationOriented(last.Final, in.Destination()) {
					b.Fatal("run did not repair the orientation")
				}
			})
		}
	}
}

// BenchmarkDistMillion is the ROADMAP's large-topology target: the sharded
// engine on chain, grid and random-tree topologies of 1M and 10M nodes,
// with trace recording off so the run carries no step-linearization lock
// and no O(steps) trace memory. Partial Reversal repairs these topologies
// with linear work, so the benchmark measures the engine's per-message cost
// at a scale where per-node maps or a global trace mutex would dominate.
//
// The 10M tier additionally sweeps the partition schemes with a pinned
// shard count and reports two extra metrics: bytes/node (heap allocated per
// node per run, from runtime.ReadMemStats deltas around the timed loop —
// the packed bitset views are what keep it in single digits) and
// xshard-msgs (Stats.Remote, the cross-shard transmissions each scheme
// produced). The chain and grid have ID-contiguous layouts, where block
// partitioning is already near-optimal; the random tree's IDs carry no
// locality, which is the case PartitionLocality exists for. The tier runs
// at 10M × several schemes, so it is skipped under -short (the CI smoke
// run).
func BenchmarkDistMillion(b *testing.B) {
	gens := []struct {
		name string
		mk   func(n int) *lr.Topology
	}{
		{"chain", func(n int) *lr.Topology { return lr.BadChain(n - 1) }},
		{"grid", func(n int) *lr.Topology {
			r := 1
			for r*r < n {
				r++
			}
			return lr.Grid(r, (n+r-1)/r)
		}},
		{"tree", func(n int) *lr.Topology { return lr.Tree(n, 1) }},
	}
	bench := func(b *testing.B, in *core.Init, opts dist.Options, n int) {
		var last *dist.Result
		var before, after runtime.MemStats
		b.ReportAllocs()
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := dist.RunWith(context.Background(), in, dist.PartialReversal, opts)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(n), "bytes/node")
		b.ReportMetric(float64(last.Stats.Remote), "xshard-msgs")
		if !graph.IsDestinationOriented(last.Final, in.Destination()) {
			b.Fatal("run did not repair the orientation")
		}
	}
	const million = 1_000_000
	for _, g := range gens {
		g := g
		b.Run(fmt.Sprintf("%s/n=%d/sharded", g.name, million), func(b *testing.B) {
			// Topology construction and core.Init (embedding, initial
			// orientation, neighbour sets) are the workload's setup, not the
			// engine's: build them once outside the timer so ns/op and
			// allocs/op measure the engine.
			in := g.mk(million).MustInit()
			bench(b, in, dist.Options{RecordTrace: dist.TraceOff}, million)
		})
	}
	const huge = 10_000_000
	for _, g := range gens {
		g := g
		for _, part := range []dist.Partition{dist.PartitionBlock, dist.PartitionHash, dist.PartitionLocality} {
			part := part
			b.Run(fmt.Sprintf("%s/n=%d/sharded/%v", g.name, huge, part), func(b *testing.B) {
				if testing.Short() {
					b.Skip("10M-node tier skipped under -short")
				}
				in := g.mk(huge).MustInit()
				// Shards pinned so xshard-msgs is a property of the partition
				// scheme, not of the machine's GOMAXPROCS.
				opts := dist.Options{Shards: 4, Partition: part, RecordTrace: dist.TraceOff}
				bench(b, in, opts, huge)
			})
		}
	}
}

// BenchmarkResultCheck compares the two ways to check a repair's result on
// a repaired 1000×1000 grid: graph.DestinationDAG, the one Kahn pass that
// RunDistributedWith, Run and the hunter's oracle call, against the
// IsAcyclic and IsDestinationOriented calls it replaced, each a walk over
// every node and slot.
func BenchmarkResultCheck(b *testing.B) {
	topo := lr.Grid(1000, 1000)
	rep, err := lr.RunDistributedWith(context.Background(), topo, lr.DistPR,
		lr.DistOptions{RecordTrace: lr.DistTraceOff})
	if err != nil {
		b.Fatal(err)
	}
	final := rep.Final
	b.Run("one-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if acyclic, oriented := graph.DestinationDAG(final, topo.Dest); !acyclic || !oriented {
				b.Fatal("repaired grid fails the check")
			}
		}
	})
	b.Run("two-calls", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !graph.IsAcyclic(final) || !graph.IsDestinationOriented(final, topo.Dest) {
				b.Fatal("repaired grid fails the check")
			}
		}
	})
}

// BenchmarkE9Rounds measures greedy-round executions on both worst-case
// chains (parallel-time experiment E9).
func BenchmarkE9Rounds(b *testing.B) {
	for _, nb := range []int{32, 128} {
		b.Run(fmt.Sprintf("FR/bad-chain/nb=%d", nb), func(b *testing.B) {
			benchRun(b, lr.BadChain(nb), lr.Config{Algorithm: lr.FR, Scheduler: lr.Greedy})
		})
		b.Run(fmt.Sprintf("PR/alt-chain/nb=%d", nb), func(b *testing.B) {
			benchRun(b, lr.AlternatingChain(nb), lr.Config{Algorithm: lr.PR, Scheduler: lr.Greedy})
		})
	}
}

// BenchmarkE10Churn measures router repair under link churn (experiment
// E10); see also BenchmarkRouterChurn for the per-event cost.
func BenchmarkE10Churn(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			topo := lr.RandomConnected(n, 0.2, int64(n))
			edges := topo.Graph.Edges()
			r, err := lr.NewRouter(topo)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Stabilize(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i%len(edges)]
				if err := r.RemoveLink(e.U, e.V); err != nil {
					b.Fatal(err)
				}
				if _, err := r.Stabilize(); err != nil {
					b.Fatal(err)
				}
				if err := r.AddLink(e.U, e.V); err != nil {
					b.Fatal(err)
				}
				if _, err := r.Stabilize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSchedulers compares scheduler choices for the same
// algorithm and topology: acyclicity holds under every scheduler (E1
// checks each), while work and wall time differ.
func BenchmarkAblationSchedulers(b *testing.B) {
	topo := lr.AlternatingChain(64)
	for _, s := range []lr.Scheduler{lr.Greedy, lr.RandomSingle, lr.RoundRobin, lr.LIFO} {
		b.Run(s.String(), func(b *testing.B) {
			benchRun(b, topo, lr.Config{Algorithm: lr.PR, Scheduler: s})
		})
	}
}

// BenchmarkAblationSetVsSingle compares PR's set actions against
// OneStepPR's single-node steps under maximal parallelism.
func BenchmarkAblationSetVsSingle(b *testing.B) {
	topo := lr.AlternatingChain(64)
	b.Run("PR/set-steps", func(b *testing.B) {
		benchRun(b, topo, lr.Config{Algorithm: lr.PR, Scheduler: lr.Greedy})
	})
	b.Run("OneStepPR/single-steps", func(b *testing.B) {
		benchRun(b, topo, lr.Config{Algorithm: lr.OneStepPR, Scheduler: lr.Greedy})
	})
}

// BenchmarkAblationCheckerCost isolates the cost of per-step invariant
// checking.
func BenchmarkAblationCheckerCost(b *testing.B) {
	topo := lr.AlternatingChain(48)
	b.Run("without-checkers", func(b *testing.B) {
		benchRun(b, topo, lr.Config{Algorithm: lr.NewPR, Scheduler: lr.RandomSingle})
	})
	b.Run("with-checkers", func(b *testing.B) {
		benchRun(b, topo, lr.Config{Algorithm: lr.NewPR, Scheduler: lr.RandomSingle, CheckInvariants: true})
	})
}

// BenchmarkAblationGraphRepr compares two ways to ask whether u points to
// v. edge-index-dir is Orientation.PointsTo, which the library uses: it
// binary-searches the shorter of the two CSR rows for the edge's ID and
// reads that edge's head, allocating nothing (README *Memory layout*).
// neighborhood-scan builds u's out-neighbour list by walking its slots and
// scans it, allocating a list per query.
func BenchmarkAblationGraphRepr(b *testing.B) {
	topo := lr.RandomConnected(128, 0.1, 5)
	o := topo.Initial
	g := topo.Graph
	edges := g.Edges()
	b.Run("edge-index-dir", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			if o.PointsTo(e.U, e.V) {
				hits++
			}
		}
		_ = hits
	})
	b.Run("neighborhood-scan", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			for _, v := range o.OutNeighbors(e.U) {
				if v == e.V {
					hits++
					break
				}
			}
		}
		_ = hits
	})
}

// BenchmarkE12Exhaustive measures a full exhaustive state-space
// verification (model checker, all invariants on every reachable state) on
// PR's worst-case chain.
func BenchmarkE12Exhaustive(b *testing.B) {
	for _, nb := range []int{5, 7} {
		b.Run(fmt.Sprintf("alt-chain/nb=%d", nb), func(b *testing.B) {
			in := lr.AlternatingChain(nb).MustInit()
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				res, err := mc.Explore(core.NewNewPR(in), mc.Options{Invariants: core.NewPRInvariants()})
				if err != nil {
					b.Fatal(err)
				}
				states = res.States
			}
			b.ReportMetric(float64(states), "states/op")
		})
	}
}

// BenchmarkRouterChurn measures route repair cost under continuous
// link failures and recoveries.
func BenchmarkRouterChurn(b *testing.B) {
	topo := lr.RandomConnected(64, 0.1, 9)
	r, err := lr.NewRouter(topo)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Stabilize(); err != nil {
		b.Fatal(err)
	}
	edges := topo.Graph.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if err := r.RemoveLink(e.U, e.V); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Stabilize(); err != nil {
			b.Fatal(err)
		}
		if err := r.AddLink(e.U, e.V); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Stabilize(); err != nil {
			b.Fatal(err)
		}
	}
}
