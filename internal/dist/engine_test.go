package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"linkreversal/internal/core"
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// perNodeShards is the Shards value of the per-node test configuration.
// Both planes clamp Shards to the (initial) node count, so every topology
// of up to perNodeShards nodes runs one node per shard — each node on its
// own goroutine with its own mailbox — and larger ones run perNodeShards
// shards, which keeps the dense per-shard outbox tables (n² pointers at
// one node per shard) affordable.
const perNodeShards = 2048

// perNodeName labels the per-node configuration in subtest names.
const perNodeName = "goroutine-per-node"

// testEngines returns the run configurations exercised by this test
// process: one node per shard (see perNodeShards), and three shards — so
// cross-shard batching is exercised even on a single-CPU machine, where
// the GOMAXPROCS default would collapse to one shard — carrying the
// partition scheme selected by LR_DIST_PARTITION (see testPartition).
// Both configurations carry the network adversary selected by
// LR_DIST_FAULTS (see testAdversary), so the CI fault matrix reruns the
// whole suite under loss, duplication and delay.
func testEngines(t testing.TB) []Options {
	adv := testAdversary(t)
	return []Options{
		{Shards: perNodeShards, Adversary: adv},
		{Shards: 3, Partition: testPartition(t), Adversary: adv},
	}
}

// engineName labels a test configuration in subtest names.
func engineName(o Options) string {
	if o.Shards == perNodeShards {
		return perNodeName
	}
	return "sharded"
}

// testPartition returns the sharded partition scheme selected by the
// LR_DIST_PARTITION environment variable (the CI partition matrix);
// PartitionBlock when unset.
func testPartition(t testing.TB) Partition {
	p, err := ParsePartition(os.Getenv("LR_DIST_PARTITION"))
	if err != nil {
		t.Fatalf("LR_DIST_PARTITION: %v", err)
	}
	return p
}

// testAdversary returns the fault scenario selected by the LR_DIST_FAULTS
// environment variable (the CI adversary matrix): nil for a reliable
// network, or a single-dimension adversary exercising loss, duplication or
// delay in isolation so a failure is attributed to the right fault class.
func testAdversary(t testing.TB) *faults.Adversary {
	switch v := os.Getenv("LR_DIST_FAULTS"); v {
	case "", "off":
		return nil
	case "loss":
		return faults.New(faults.Drop{P: 0.2}, 1)
	case "dup":
		return faults.New(faults.Duplicate{P: 0.25, Extra: 2}, 1)
	case "delay":
		return faults.New(faults.Delay{P: 0.5, Bound: 6}, 1)
	default:
		t.Fatalf("unknown LR_DIST_FAULTS %q (want off, loss, dup or delay)", v)
		return nil
	}
}

// TestOptionsValidation pins the ErrBadOption cases and that valid
// non-default knobs are accepted.
func TestOptionsValidation(t *testing.T) {
	in, err := workload.BadChain(4).Init()
	if err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{Engine: Engine(42)},
		{Engine: 1}, // no engine has value 1
		{Partition: Partition(42)},
		{Shards: -1},
		{MailboxCap: -3},
		{RecordTrace: Trace(42)},
	}
	for _, opts := range bad {
		if _, err := RunWith(context.Background(), in, FullReversal, opts); !errors.Is(err, ErrBadOption) {
			t.Errorf("opts %+v: err = %v, want ErrBadOption", opts, err)
		}
	}
	good := []Options{
		{},
		{Engine: Sharded},
		{Shards: 64, Partition: PartitionHash}, // shards > nodes: clamped
		{Shards: 2, Partition: PartitionLocality},
		{MailboxCap: 1},
		{Shards: 2, MailboxCap: 1},
		{RecordTrace: TraceOff},
		{Shards: 1, RecordTrace: TraceOff},
	}
	for _, opts := range good {
		res, err := RunWith(context.Background(), in, FullReversal, opts)
		if err != nil {
			t.Errorf("opts %+v: unexpected error %v", opts, err)
			continue
		}
		if !graph.IsDestinationOriented(res.Final, in.Destination()) {
			t.Errorf("opts %+v: final orientation not destination oriented", opts)
		}
	}
}

// chainNbrs is an ascending chain adjacency 0–1–2–…–(n-1) for partitioner
// tests that need a graph without building a workload topology.
func chainNbrs(n int) func(graph.NodeID) []graph.NodeID {
	return func(u graph.NodeID) []graph.NodeID {
		nbrs := make([]graph.NodeID, 0, 2)
		if u > 0 {
			nbrs = append(nbrs, u-1)
		}
		if int(u) < n-1 {
			nbrs = append(nbrs, u+1)
		}
		return nbrs
	}
}

// TestPartitioner checks all three schemes: assignments are deterministic,
// land in [0, shards) — also for IDs past the node count — cover every
// node exactly once (trivially, being a function), and respect each
// scheme's balance guarantee.
func TestPartitioner(t *testing.T) {
	for _, scheme := range []Partition{PartitionBlock, PartitionHash, PartitionLocality} {
		for _, n := range []int{1, 5, 64, 1000} {
			for _, shards := range []int{1, 2, 3, 7, 16} {
				if shards > n {
					continue // RunWith clamps shards to the node count
				}
				name := fmt.Sprintf("%v/n=%d/shards=%d", scheme, n, shards)
				p := newPartitioner(scheme, n, shards, chainNbrs(n))
				q := newPartitioner(scheme, n, shards, chainNbrs(n))
				sizes := make([]int, shards)
				for u := 0; u < n; u++ {
					s := p.shardOf(graph.NodeID(u))
					if s < 0 || s >= shards {
						t.Fatalf("%s: node %d assigned to shard %d out of range", name, u, s)
					}
					if s != q.shardOf(graph.NodeID(u)) {
						t.Fatalf("%s: assignment of node %d not deterministic", name, u)
					}
					sizes[s]++
				}
				total, ceil := 0, (n+shards-1)/shards
				for s, size := range sizes {
					total += size
					if size > ceil {
						t.Errorf("%s: shard %d holds %d nodes, want ≤ ⌈n/shards⌉ = %d", name, s, size, ceil)
					}
				}
				if total != n {
					t.Errorf("%s: %d assignments for %d nodes", name, total, n)
				}
				// IDs a dynamic network adds after construction overflow
				// every scheme's construction-time assignment; they must
				// still land on a shard.
				for u := n; u < 3*n+shards; u++ {
					if s := p.shardOf(graph.NodeID(u)); s < 0 || s >= shards {
						t.Fatalf("%s: added node %d assigned to shard %d out of range", name, u, s)
					}
				}
				if scheme == PartitionBlock {
					// Block assignments are monotone in the node ID.
					for u := 1; u < n; u++ {
						if p.shardOf(graph.NodeID(u)) < p.shardOf(graph.NodeID(u-1)) {
							t.Fatalf("%s: block assignment not monotone at node %d", name, u)
						}
					}
				}
			}
		}
	}
}

// TestLocalityPartitioner pins PartitionLocality's specific behaviour: the
// documented block fallback when no graph is available, full coverage of
// disconnected topologies, and the property the scheme exists for — on a
// topology whose node IDs carry no locality (an ID-permuted chain), the BFS
// regions cut far fewer edges than block's ID ranges.
func TestLocalityPartitioner(t *testing.T) {
	const n, shards = 240, 6
	fallback := newPartitioner(PartitionLocality, n, shards, nil)
	block := newPartitioner(PartitionBlock, n, shards, nil)
	for u := 0; u < n; u++ {
		if fallback.shardOf(graph.NodeID(u)) != block.shardOf(graph.NodeID(u)) {
			t.Fatalf("locality without a graph should fall back to block; differs at node %d", u)
		}
	}

	// A chain whose IDs are scrambled by a multiplicative permutation:
	// position i holds node perm[i] = 37·i mod n (37 coprime to 240), so ID
	// adjacency says nothing about topology adjacency.
	perm := make([]graph.NodeID, n)
	adj := make([][]graph.NodeID, n)
	for i := range perm {
		perm[i] = graph.NodeID(37 * i % n)
	}
	for i := 1; i < n; i++ {
		u, v := perm[i-1], perm[i]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	nbrs := func(u graph.NodeID) []graph.NodeID { return adj[u] }
	cut := func(p partitioner) int {
		c := 0
		for i := 1; i < n; i++ {
			if p.shardOf(perm[i-1]) != p.shardOf(perm[i]) {
				c++
			}
		}
		return c
	}
	loc := newPartitioner(PartitionLocality, n, shards, nbrs)
	if lc, bc := cut(loc), cut(block); lc >= bc/4 {
		t.Errorf("locality cuts %d of %d chain edges, block cuts %d; want locality < block/4", lc, n-1, bc)
	}

	// Two disconnected chains: the seed rescan must still assign every node.
	half := n / 2
	disc := func(u graph.NodeID) []graph.NodeID {
		var out []graph.NodeID
		if u != 0 && int(u) != half {
			out = append(out, u-1)
		}
		if int(u) != half-1 && int(u) != n-1 {
			out = append(out, u+1)
		}
		return out
	}
	p := newPartitioner(PartitionLocality, n, shards, disc)
	for u := 0; u < n; u++ {
		if s := p.shardOf(graph.NodeID(u)); s < 0 || s >= shards {
			t.Fatalf("disconnected topology: node %d assigned to shard %d out of range", u, s)
		}
	}
}

// agreeVariants are the shard settings the confluence tests hold against
// the sequential oracle: one shard, two, five under hash partitioning,
// three under locality partitioning, the GOMAXPROCS default, and one node
// per shard.
var agreeVariants = []Options{
	{Shards: 1},
	{Shards: 2},
	{Shards: 5, Partition: PartitionHash},
	{Shards: 3, Partition: PartitionLocality},
	{},
	{Shards: perNodeShards},
}

// requireSequentialFinal runs alg on in under opts and requires the final
// orientation and reversal count of the sequential oracle (sequentialFinal)
// — the check that does not trust any part of the runtime under test.
func requireSequentialFinal(t *testing.T, in *core.Init, alg Algorithm, opts Options, want *graph.Orientation, wantRev int) {
	t.Helper()
	res, err := RunWith(context.Background(), in, alg, opts)
	if err != nil {
		t.Fatalf("%v/%+v: %v", alg, opts, err)
	}
	if !res.Final.Equal(want) {
		t.Errorf("%v/%+v: final orientation diverged from the sequential automaton's", alg, opts)
	}
	if res.Stats.TotalReversals != wantRev {
		t.Errorf("%v/%+v: %d reversals, sequential automaton %d", alg, opts, res.Stats.TotalReversals, wantRev)
	}
}

// TestEnginesAgreeOnFinal runs every shard setting of agreeVariants on the
// same inputs and requires the sequential automaton's final orientation
// and reversal count. Link reversal is confluent: enabled sinks are never
// adjacent, so their steps commute, and the final orientation and work are
// functions of the input alone. Any divergence is an engine bug.
func TestEnginesAgreeOnFinal(t *testing.T) {
	for _, topo := range []*workload.Topology{
		workload.AlternatingChain(9),
		workload.Grid(4, 5),
		workload.RandomConnected(24, 0.2, 11),
	} {
		in, err := topo.Init()
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range allAlgorithms() {
			want, wantRev := sequentialFinal(t, alg, in)
			for _, opts := range agreeVariants {
				requireSequentialFinal(t, in, alg, opts, want, wantRev)
			}
		}
	}
}

// TestRunWithCancelMidRun starts a run that deterministically needs far
// more work than the context allows (FR on the all-away chain is Θ(n_b²))
// and checks that cancellation propagates into the engine's stop path
// mid-run: the call must return ctx.Err() promptly instead of running the
// protocol to quiescence.
func TestRunWithCancelMidRun(t *testing.T) {
	in, err := workload.BadChain(4000).Init()
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range testEngines(t) {
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
			// 16M reversals take seconds at best; well under a second after
			// the deadline is "prompt" even on a loaded race-enabled CI box.
			if elapsed > 10*time.Second {
				t.Errorf("cancellation took %v, want prompt return", elapsed)
			}
		})
	}
}

// TestShardedGoroutineCount pins the sharded engine's O(shards) goroutine
// bound: sampling the runtime's goroutine count during a long run must stay
// within 2·shards workers (loop + mailbox pump each) plus a small slack,
// regardless of the 1501-node topology.
func TestShardedGoroutineCount(t *testing.T) {
	in, err := workload.BadChain(1500).Init()
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	baseline := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := RunWith(context.Background(), in, FullReversal, Options{Shards: shards})
		done <- err
	}()
	peak := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if limit := baseline + 2*shards + 4; peak > limit {
				t.Errorf("goroutine peak %d > %d (baseline %d + 2·%d shards + slack)",
					peak, limit, baseline, shards)
			}
			return
		default:
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestEngineStrings pins the enum renderings used in benchmarks and tables.
func TestEngineStrings(t *testing.T) {
	if PartitionBlock.String() != "block" || PartitionHash.String() != "hash" || PartitionLocality.String() != "locality" {
		t.Error("partition strings wrong")
	}
	if Partition(42).String() != "Partition(42)" {
		t.Errorf("unknown partition string = %q", Partition(42).String())
	}
	for _, p := range []Partition{PartitionBlock, PartitionHash, PartitionLocality} {
		for _, s := range []string{p.String(), strings.ToUpper(p.String())} {
			if got, err := ParsePartition(s); got != p || err != nil {
				t.Errorf("ParsePartition(%q) = %v, %v; want %v", s, got, err, p)
			}
		}
	}
	if got, err := ParsePartition(""); got != PartitionBlock || err != nil {
		t.Errorf("ParsePartition(\"\") = %v, %v; want block", got, err)
	}
	if _, err := ParsePartition("psychic"); !errors.Is(err, ErrBadOption) {
		t.Errorf("ParsePartition(psychic) err = %v, want ErrBadOption", err)
	}
	if TraceRecorded.String() != "trace-recorded" || TraceOff.String() != "trace-off" {
		t.Error("trace strings wrong")
	}
	if Trace(42).String() != "Trace(42)" {
		t.Errorf("unknown trace string = %q", Trace(42).String())
	}
}

// FuzzEnginesAgree feeds random topologies through every shard setting of
// agreeVariants plus one fuzzed shard count and requires the sequential
// automaton's final orientation and reversal count — the confluence
// cross-check over the whole generator space, including degenerate shard
// counts.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(uint8(8), uint8(30), int64(1), uint8(1), uint8(2))
	f.Add(uint8(2), uint8(0), int64(-5), uint8(2), uint8(0))
	f.Add(uint8(30), uint8(80), int64(99), uint8(0), uint8(131))
	f.Fuzz(func(t *testing.T, rawN, rawP uint8, seed int64, rawAlg, rawShards uint8) {
		n := 2 + int(rawN)%30
		p := float64(rawP%100) / 100.0
		alg := allAlgorithms()[int(rawAlg)%3]
		fuzzed := Options{Shards: 1 + int(rawShards)%6}
		if rawShards >= 128 {
			fuzzed.Partition = PartitionHash
		}
		topo := workload.RandomConnected(n, p, seed)
		in, err := topo.Init()
		if err != nil {
			t.Fatal(err)
		}
		want, wantRev := sequentialFinal(t, alg, in)
		for _, opts := range agreeVariants {
			requireSequentialFinal(t, in, alg, opts, want, wantRev)
		}
		requireSequentialFinal(t, in, alg, fuzzed, want, wantRev)
	})
}
