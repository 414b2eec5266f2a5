package linkreversal_test

import (
	"context"
	"errors"
	"testing"
	"time"

	lr "linkreversal"
)

// TestRunDistributedAllTopologies pins this PR's acceptance bar: every
// distributed protocol variant must quiesce acyclic and destination
// oriented on every ready-made topology exported by the public API.
func TestRunDistributedAllTopologies(t *testing.T) {
	topos := []*lr.Topology{
		lr.BadChain(12),
		lr.AlternatingChain(11),
		lr.GoodChain(8),
		lr.Star(9),
		lr.Ladder(5),
		lr.Grid(4, 4),
		lr.LayeredDAG(4, 4, 0.4, 3),
		lr.RandomConnected(16, 0.25, 7),
		lr.Tree(12, 5),
		lr.Ring(8, 2),
		lr.Hypercube(3, 4),
		lr.CompleteBipartite(3, 4),
		lr.BinaryTree(4),
		lr.Wheel(8),
	}
	for _, topo := range topos {
		for _, alg := range []lr.DistAlgorithm{lr.DistFR, lr.DistPR, lr.DistNewPR} {
			topo, alg := topo, alg
			t.Run(topo.Name+"/"+alg.String(), func(t *testing.T) {
				t.Parallel()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				rep, err := lr.RunDistributed(ctx, topo, alg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Acyclic {
					t.Error("final orientation is cyclic")
				}
				if !rep.DestinationOriented {
					t.Error("final orientation is not destination oriented")
				}
				if rep.Messages < rep.TotalReversals {
					t.Errorf("messages %d < reversals %d", rep.Messages, rep.TotalReversals)
				}
			})
		}
	}
}

// TestRunDistributedWithSharded pins explicit shard options behind the
// public API: same invariants as the default layout, identical final
// orientation, and a batch count bounded by the message count.
func TestRunDistributedWithSharded(t *testing.T) {
	for _, topo := range []*lr.Topology{
		lr.AlternatingChain(11),
		lr.Grid(4, 4),
		lr.RandomConnected(16, 0.25, 7),
	} {
		for _, alg := range []lr.DistAlgorithm{lr.DistFR, lr.DistPR, lr.DistNewPR} {
			topo, alg := topo, alg
			t.Run(topo.Name+"/"+alg.String(), func(t *testing.T) {
				t.Parallel()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				ref, err := lr.RunDistributed(ctx, topo, alg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := lr.RunDistributedWith(ctx, topo, alg, lr.DistOptions{
					Shards:    3,
					Partition: lr.DistPartitionHash,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Acyclic || !rep.DestinationOriented {
					t.Errorf("bad outcome %+v", rep)
				}
				if !rep.Final.Equal(ref.Final) {
					t.Error("3-shard hash layout diverged from the default layout's final orientation")
				}
				if rep.Batches > rep.Messages {
					t.Errorf("batches %d > messages %d", rep.Batches, rep.Messages)
				}
			})
		}
	}
}

// TestRunDistributedWithBadOptions pins the options validation surface.
func TestRunDistributedWithBadOptions(t *testing.T) {
	topo := lr.BadChain(4)
	for _, opts := range []lr.DistOptions{
		{Shards: -1},
		{Engine: lr.DistEngine(9)},
		{Adversary: &lr.NetworkAdversary{}}, // no policy
		{Adversary: lr.NewNetworkAdversary(lr.FaultDrop{P: 2}, 1)}, // probability out of range
	} {
		if _, err := lr.RunDistributedWith(context.Background(), topo, lr.DistFR, opts); !errors.Is(err, lr.ErrBadDistOptions) {
			t.Errorf("opts %+v: err = %v, want ErrBadDistOptions", opts, err)
		}
	}
}

// TestRunDistributedWithNetworkAdversary exercises fault injection behind
// the public API: under every preset adversary (and a composed custom
// one), both one node per shard ("goroutine-per-node": every node on its
// own goroutine) and the default shard layout must absorb the
// interference via retransmission and land on the fault-free final
// orientation, with the fault counters reporting what happened.
func TestRunDistributedWithNetworkAdversary(t *testing.T) {
	topo := lr.Grid(5, 5)
	ref, err := lr.RunDistributed(context.Background(), topo, lr.DistPR)
	if err != nil {
		t.Fatal(err)
	}
	custom := lr.NewNetworkAdversary(lr.FaultChain{
		lr.FaultDropFirst{K: 1},
		lr.FaultDuplicate{P: 0.3},
		lr.FaultDelay{P: 0.4, Bound: 5},
		lr.FaultReorder{P: 0.2},
	}, 99)
	for _, adv := range []*lr.NetworkAdversary{
		lr.LossyNetwork(7),
		lr.FlakyNetwork(7),
		lr.AdversarialNetwork(7),
		custom,
	} {
		for _, layout := range []struct {
			name   string
			shards int
		}{
			{"goroutine-per-node", topo.Graph.NumNodes()},
			{"sharded", 0},
		} {
			adv, layout := adv, layout
			t.Run(adv.Scenario+"/"+layout.name, func(t *testing.T) {
				t.Parallel()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				rep, err := lr.RunDistributedWith(ctx, topo, lr.DistPR, lr.DistOptions{
					Shards:    layout.shards,
					Adversary: adv,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Acyclic || !rep.DestinationOriented {
					t.Errorf("bad outcome %+v", rep)
				}
				if !rep.Final.Equal(ref.Final) {
					t.Error("adversarial final orientation diverged from the fault-free run")
				}
				if rep.Drops > 0 && rep.Retransmits == 0 {
					t.Errorf("%d drops but no retransmissions", rep.Drops)
				}
				if rep.Messages > 0 && rep.Acks == 0 {
					t.Error("payloads flowed but no acks were recorded")
				}
			})
		}
	}
}
