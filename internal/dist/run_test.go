package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// testTopologies returns every ready-made generator of internal/workload at
// a size that keeps the race-enabled suite fast.
func testTopologies() []*workload.Topology {
	return []*workload.Topology{
		workload.BadChain(12),
		workload.AlternatingChain(11),
		workload.GoodChain(8),
		workload.Star(9),
		workload.Ladder(5),
		workload.Grid(4, 4),
		workload.LayeredDAG(4, 4, 0.4, 3),
		workload.RandomConnected(16, 0.25, 7),
		workload.Tree(12, 5),
		workload.Ring(8, 2),
		workload.Hypercube(3, 4),
		workload.CompleteBipartite(3, 4),
		workload.BinaryTree(4),
		workload.Wheel(8),
	}
}

func allAlgorithms() []Algorithm {
	return []Algorithm{FullReversal, PartialReversal, StaticPartialReversal}
}

// TestRunQuiescesOnAllTopologies is the main table test: every algorithm on
// every ready-made topology, under every engine configuration, must quiesce
// to an acyclic, destination-oriented orientation (run under -race in CI).
func TestRunQuiescesOnAllTopologies(t *testing.T) {
	for _, topo := range testTopologies() {
		for _, alg := range allAlgorithms() {
			for _, opts := range testEngines(t) {
				topo, alg, opts := topo, alg, opts
				t.Run(topo.Name+"/"+alg.String()+"/"+engineName(opts), func(t *testing.T) {
					t.Parallel()
					in, err := topo.Init()
					if err != nil {
						t.Fatal(err)
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					defer cancel()
					res, err := RunWith(ctx, in, alg, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !graph.IsAcyclic(res.Final) {
						t.Error("final orientation is cyclic")
					}
					if !graph.IsDestinationOriented(res.Final, topo.Dest) {
						t.Error("final orientation is not destination oriented")
					}
					if res.Stats.Messages != res.Stats.TotalReversals {
						t.Errorf("messages %d != reversals %d", res.Stats.Messages, res.Stats.TotalReversals)
					}
					// Batches counts transport handoffs; with a fault
					// adversary those include acks, retransmissions and
					// holdback requeues, so the bound only holds on a
					// reliable network.
					if opts.Adversary == nil && res.Stats.Batches > res.Stats.Messages {
						t.Errorf("batches %d > messages %d", res.Stats.Batches, res.Stats.Messages)
					}
					if len(res.Trace) != res.Stats.Steps {
						t.Errorf("trace length %d != steps %d", len(res.Trace), res.Stats.Steps)
					}
				})
			}
		}
	}
}

// TestRunDeterministicOnBadChain checks the work counts on the chain where
// only one node is ever enabled, so even the asynchronous execution is
// deterministic: PR repairs the all-away chain in one linear pass while FR
// pays the quadratic re-reversal bill.
func TestRunDeterministicOnBadChain(t *testing.T) {
	const nb = 8
	in, err := workload.BadChain(nb).Init()
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range testEngines(t) {
		res, err := RunWith(context.Background(), in, PartialReversal, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.TotalReversals != nb {
			t.Errorf("%v: PR reversals = %d, want %d (one linear pass)",
				engineName(opts), res.Stats.TotalReversals, nb)
		}
		resFR, err := RunWith(context.Background(), in, FullReversal, opts)
		if err != nil {
			t.Fatal(err)
		}
		// FR's total work is schedule independent and equals n_b² on the
		// all-away chain.
		if want := nb * nb; resFR.Stats.TotalReversals != want {
			t.Errorf("%v: FR reversals = %d, want %d (quadratic)",
				engineName(opts), resFR.Stats.TotalReversals, want)
		}
	}
}

// TestRunAlreadyOriented checks the trivial case: a destination-oriented
// start has no sinks, so the protocols exchange nothing.
func TestRunAlreadyOriented(t *testing.T) {
	in, err := workload.GoodChain(6).Init()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms() {
		for _, opts := range testEngines(t) {
			res, err := RunWith(context.Background(), in, alg, opts)
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, engineName(opts), err)
			}
			if res.Stats.Steps != 0 || res.Stats.Messages != 0 {
				t.Errorf("%v/%v: stats = %+v, want all zero", alg, engineName(opts), res.Stats)
			}
			if !res.Final.Equal(in.InitialOrientation()) {
				t.Errorf("%v/%v: orientation changed on a quiescent start", alg, engineName(opts))
			}
		}
	}
}

// TestRunUnknownAlgorithm checks input validation.
func TestRunUnknownAlgorithm(t *testing.T) {
	in, err := workload.BadChain(3).Init()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), in, Algorithm(42)); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("err = %v, want ErrUnknownAlgorithm", err)
	}
}

// TestRunCancelledContext checks that a pre-cancelled context aborts the
// run before any goroutine is spawned.
func TestRunCancelledContext(t *testing.T) {
	in, err := workload.BadChain(16).Init()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, in, PartialReversal); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestAlgorithmString pins the enum rendering used in experiment tables.
func TestAlgorithmString(t *testing.T) {
	if FullReversal.String() != "dist-FR" || PartialReversal.String() != "dist-PR" ||
		StaticPartialReversal.String() != "dist-NewPR" {
		t.Error("algorithm strings wrong")
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Errorf("unknown algorithm string = %q", Algorithm(42).String())
	}
}
