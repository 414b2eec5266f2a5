package linkreversal_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	lr "linkreversal"
	"linkreversal/internal/core"
	"linkreversal/internal/sched"
)

func TestRunDefaults(t *testing.T) {
	topo := lr.BadChain(8)
	rep, err := lr.RunTopology(topo, lr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Quiesced || !rep.Acyclic || !rep.DestinationOriented {
		t.Errorf("report = %+v, want quiesced, acyclic, oriented", rep)
	}
	if rep.Algorithm != lr.PR || rep.Scheduler != lr.Greedy {
		t.Errorf("defaults = %v/%v, want PR/greedy", rep.Algorithm, rep.Scheduler)
	}
	if rep.TotalReversals != 8 {
		t.Errorf("PR on bad chain: reversals = %d, want 8 (one linear pass)", rep.TotalReversals)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	topo := lr.AlternatingChain(10)
	algs := []lr.Algorithm{lr.PR, lr.OneStepPR, lr.NewPR, lr.FR, lr.GBPair}
	for _, a := range algs {
		t.Run(a.String(), func(t *testing.T) {
			rep, err := lr.RunTopology(topo, lr.Config{
				Algorithm:       a,
				Scheduler:       lr.RandomSingle,
				Seed:            3,
				CheckInvariants: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.DestinationOriented {
				t.Error("not destination oriented")
			}
			if !rep.Acyclic {
				t.Error("final orientation cyclic")
			}
		})
	}
}

func TestRunAllSchedulers(t *testing.T) {
	topo := lr.Grid(3, 4)
	for _, s := range []lr.Scheduler{lr.Greedy, lr.RandomSingle, lr.RandomSubset, lr.RoundRobin, lr.LIFO} {
		t.Run(s.String(), func(t *testing.T) {
			rep, err := lr.RunTopology(topo, lr.Config{Algorithm: lr.NewPR, Scheduler: s})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.DestinationOriented {
				t.Error("not destination oriented")
			}
		})
	}
}

func TestRunUnknownValues(t *testing.T) {
	topo := lr.BadChain(3)
	if _, err := lr.RunTopology(topo, lr.Config{Algorithm: lr.Algorithm(42)}); !errors.Is(err, lr.ErrUnknownAlgorithm) {
		t.Errorf("algorithm error = %v", err)
	}
	if _, err := lr.RunTopology(topo, lr.Config{Scheduler: lr.Scheduler(42)}); !errors.Is(err, lr.ErrUnknownScheduler) {
		t.Errorf("scheduler error = %v", err)
	}
}

func TestRunCustomGraph(t *testing.T) {
	g, err := lr.NewGraphBuilder(4).
		AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).AddEdge(0, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lr.Run(g, lr.DefaultOrientation(g), 0, lr.Config{Algorithm: lr.NewPR})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DestinationOriented {
		t.Error("not destination oriented")
	}
}

func TestRunRejectsCyclicInitial(t *testing.T) {
	g, err := lr.NewGraphBuilder(3).AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := lr.OrientationFrom(g, [][2]lr.NodeID{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lr.Run(g, cyc, 0, lr.Config{}); err == nil {
		t.Error("cyclic initial orientation accepted")
	}
}

// TestForeignOrientationRejected: an initial orientation of a different
// graph is refused with core.ErrForeignOrientation by every entry point
// that builds an Init, instead of being read through the wrong graph's
// edges; an orientation of a second, identically built graph is accepted.
func TestForeignOrientationRejected(t *testing.T) {
	g1 := lr.NewGraphBuilder(3).AddEdge(0, 1).AddEdge(1, 2).MustBuild()
	g2 := lr.NewGraphBuilder(3).AddEdge(0, 2).AddEdge(2, 1).MustBuild()
	foreign := lr.DefaultOrientation(g2)
	if _, err := lr.Run(g1, foreign, 0, lr.Config{}); !errors.Is(err, core.ErrForeignOrientation) {
		t.Errorf("Run: err = %v, want ErrForeignOrientation", err)
	}
	topo := &lr.Topology{Name: "foreign", Graph: g1, Initial: foreign, Dest: 0}
	if _, err := lr.RunDistributedWith(context.Background(), topo, lr.DistPR, lr.DistOptions{}); !errors.Is(err, core.ErrForeignOrientation) {
		t.Errorf("RunDistributedWith: err = %v, want ErrForeignOrientation", err)
	}
	if _, err := lr.ReplayExecution(g1, foreign, 0, lr.PR, &lr.Execution{}); !errors.Is(err, core.ErrForeignOrientation) {
		t.Errorf("ReplayExecution: err = %v, want ErrForeignOrientation", err)
	}

	twin := lr.DefaultOrientation(lr.NewGraphBuilder(3).AddEdge(0, 1).AddEdge(1, 2).MustBuild())
	rep, err := lr.Run(g1, twin, 0, lr.Config{})
	if err != nil {
		t.Fatalf("Run on a twin graph's orientation: %v", err)
	}
	if !rep.DestinationOriented {
		t.Error("Run on a twin graph's orientation did not repair")
	}
	topo.Initial = twin
	drep, err := lr.RunDistributedWith(context.Background(), topo, lr.DistPR, lr.DistOptions{})
	if err != nil {
		t.Fatalf("RunDistributedWith on a twin graph's orientation: %v", err)
	}
	if !drep.Final.Equal(rep.Final) {
		t.Error("distributed and sequential repairs of the twin orientation disagree")
	}
}

func TestNewPRDummyStepsReported(t *testing.T) {
	// The diamond from the core tests: node 1 takes one dummy step.
	g, err := lr.NewGraphBuilder(4).
		AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 3).AddEdge(2, 3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	o, err := lr.OrientationFrom(g, [][2]lr.NodeID{{1, 0}, {1, 2}, {3, 0}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lr.Run(g, o, 3, lr.Config{Algorithm: lr.NewPR, Scheduler: lr.RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DummySteps == 0 {
		t.Error("expected at least one dummy step")
	}
}

func TestRunDistributedAPI(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	topo := lr.LayeredDAG(4, 4, 0.4, 8)
	for _, alg := range []lr.DistAlgorithm{lr.DistFR, lr.DistPR, lr.DistNewPR} {
		rep, err := lr.RunDistributed(ctx, topo, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !rep.DestinationOriented || !rep.Acyclic {
			t.Errorf("%v: report %+v", alg, rep)
		}
		if rep.Messages < rep.TotalReversals {
			t.Errorf("%v: messages %d < reversals %d", alg, rep.Messages, rep.TotalReversals)
		}
	}
}

func TestVerifySimulationAPI(t *testing.T) {
	for _, topo := range []*lr.Topology{
		lr.BadChain(10), lr.AlternatingChain(9), lr.Star(8), lr.RandomConnected(14, 0.25, 6),
	} {
		rep, err := lr.VerifySimulation(topo, 1)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		if !rep.OrientationsEq {
			t.Errorf("%s: final orientations differ", topo.Name)
		}
		if rep.NewPRSteps != rep.OneStepPRSteps+rep.DummySteps {
			t.Errorf("%s: step accounting: NewPR %d != OneStepPR %d + dummy %d",
				topo.Name, rep.NewPRSteps, rep.OneStepPRSteps, rep.DummySteps)
		}
	}
}

func TestExportDOT(t *testing.T) {
	topo := lr.GoodChain(3)
	dot := lr.ExportDOT(topo.Initial, "chain", topo.Dest)
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}
}

func TestBadNodesAPI(t *testing.T) {
	topo := lr.BadChain(5)
	bad := lr.BadNodes(topo.Initial, topo.Dest)
	if len(bad) != 5 {
		t.Errorf("BadNodes = %v, want 5 nodes", bad)
	}
	if !lr.IsAcyclic(topo.Initial) {
		t.Error("initial must be acyclic")
	}
	if lr.IsDestinationOriented(topo.Initial, topo.Dest) {
		t.Error("bad chain must not start oriented")
	}
}

func TestRouterAPI(t *testing.T) {
	r, err := lr.NewRouter(lr.Ladder(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stabilize(); err != nil {
		t.Fatal(err)
	}
	path, err := r.Route(7)
	if err != nil {
		t.Fatal(err)
	}
	if path[len(path)-1] != 0 {
		t.Errorf("route ends at %d, want 0", path[len(path)-1])
	}
}

func TestRecordReplayAPI(t *testing.T) {
	topo := lr.AlternatingChain(10)
	rep, err := lr.RunTopology(topo, lr.Config{
		Algorithm:       lr.PR,
		Scheduler:       lr.RandomSubset,
		Seed:            5,
		RecordExecution: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Execution == nil || rep.Execution.Len() != rep.Steps {
		t.Fatalf("execution not recorded: %+v", rep.Execution)
	}
	var buf bytes.Buffer
	if err := lr.EncodeExecution(&buf, rep.Execution); err != nil {
		t.Fatal(err)
	}
	decoded, err := lr.DecodeExecution(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := lr.ReplayExecution(topo.Graph, topo.Initial, topo.Dest, lr.PR, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.Final.Equal(rep.Final) {
		t.Error("replay diverged from the recorded run")
	}
	if replayed.TotalReversals != rep.TotalReversals {
		t.Errorf("replayed reversals %d, recorded %d", replayed.TotalReversals, rep.TotalReversals)
	}
	// Replaying a PR recording on NewPR must fail (step semantics differ).
	if _, err := lr.ReplayExecution(topo.Graph, topo.Initial, topo.Dest, lr.NewPR, decoded); err == nil {
		t.Error("cross-variant replay accepted")
	}
}

func TestNewTopologyExports(t *testing.T) {
	for _, topo := range []*lr.Topology{
		lr.Hypercube(3, 1), lr.CompleteBipartite(3, 4), lr.BinaryTree(4), lr.Wheel(8),
	} {
		t.Run(topo.Name, func(t *testing.T) {
			rep, err := lr.RunTopology(topo, lr.Config{Algorithm: lr.NewPR, CheckInvariants: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.DestinationOriented || !rep.Acyclic {
				t.Errorf("bad outcome on %s: %+v", topo.Name, rep)
			}
		})
	}
}

func TestDynamicNetworkAPI(t *testing.T) {
	net, err := lr.NewDynamicNetwork(lr.Grid(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	if err := net.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	s := net.Snapshot()
	if _, ok := s.RouteInto(8, 0, 10, nil); !ok {
		t.Error("no route after repair")
	}
}

func TestEnumStrings(t *testing.T) {
	if lr.PR.String() != "PR" || lr.NewPR.String() != "NewPR" || lr.GBPair.String() != "GBPair" {
		t.Error("algorithm strings wrong")
	}
	if lr.Greedy.String() != "greedy" || lr.LIFO.String() != "lifo" || lr.AdversarialMax.String() != "adversarial-max" {
		t.Error("scheduler strings wrong")
	}
	// Every scheduler value names its entry of the one scheduler table, and
	// the table has no entry without a value.
	if int(lr.AdversarialMax) != len(sched.Table) {
		t.Errorf("%d scheduler values, %d table entries", int(lr.AdversarialMax), len(sched.Table))
	}
	for i, entry := range sched.Table {
		if got := lr.Scheduler(i + 1).String(); got != entry.Name {
			t.Errorf("Scheduler(%d) = %q, want %q", i+1, got, entry.Name)
		}
	}
	if !strings.Contains(lr.Algorithm(42).String(), "42") {
		t.Error("unknown algorithm string should carry the value")
	}
	if !strings.Contains(lr.Scheduler(42).String(), "42") {
		t.Error("unknown scheduler string should carry the value")
	}
}
