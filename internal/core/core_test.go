package core

import (
	"errors"
	"testing"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// pathInit builds a 4-node path 0-1-2-3 with the initial orientation
// 0→1→2→3 and destination dest.
func pathInit(t *testing.T, dest graph.NodeID) *Init {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInit(g, graph.NewOrientation(g), dest)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// badChainInit builds a path 0-1-...-n with all edges directed away from
// destination 0 (the worst-case input).
func badChainInit(t *testing.T, nb int) *Init {
	t.Helper()
	n := nb + 1
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInit(g, graph.NewOrientation(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInitValidation(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInit(g, graph.NewOrientation(g), 5); !errors.Is(err, ErrBadDestination) {
		t.Errorf("bad destination: got %v", err)
	}
	cyc, err := graph.OrientationFromDirected(g, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInit(g, cyc, 0); !errors.Is(err, ErrCyclicInitial) {
		t.Errorf("cyclic initial: got %v", err)
	}
}

func TestInitNeighborSetsAreFixed(t *testing.T) {
	in := pathInit(t, 3)
	if got := in.InNbrs(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("InNbrs(1) = %v, want [0]", got)
	}
	if got := in.OutNbrs(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("OutNbrs(1) = %v, want [2]", got)
	}
	// Source and sink extremes.
	if got := in.InNbrs(0); len(got) != 0 {
		t.Errorf("InNbrs(0) = %v, want empty", got)
	}
	if got := in.OutNbrs(3); len(got) != 0 {
		t.Errorf("OutNbrs(3) = %v, want empty", got)
	}
}

func TestPRFirstStepReversesAllEdges(t *testing.T) {
	// Destination 0: node 3 is the only sink. Its list is empty, so the
	// first reversal flips all incident edges (here just {2,3}).
	in := badChainInit(t, 3)
	pr := NewPRAutomaton(in)
	if q := pr.Quiescent(); q {
		t.Fatal("bad chain must have an enabled sink")
	}
	enabled := pr.Enabled()
	if len(enabled) != 1 {
		t.Fatalf("enabled = %v, want one action", enabled)
	}
	if err := pr.Step(enabled[0]); err != nil {
		t.Fatal(err)
	}
	if !pr.Orientation().PointsTo(3, 2) {
		t.Error("edge {2,3} should now point 3→2")
	}
	// Node 2 learned about the reversal.
	if got := pr.List(2); len(got) != 1 || got[0] != 3 {
		t.Errorf("list[2] = %v, want [3]", got)
	}
	// Node 3 emptied its list.
	if got := pr.List(3); len(got) != 0 {
		t.Errorf("list[3] = %v, want empty", got)
	}
	if pr.TotalReversals() != 1 || pr.Steps() != 1 {
		t.Errorf("work=%d steps=%d, want 1,1", pr.TotalReversals(), pr.Steps())
	}
}

func TestPRPartialReversalSkipsList(t *testing.T) {
	// Bad chain 0←...: run node 3, then node 2 becomes a sink with
	// list = {3}. Node 2 must reverse only {1,2} (not {2,3}).
	in := badChainInit(t, 3)
	pr := NewPRAutomaton(in)
	mustStep(t, pr, automaton.ReverseNode{U: 3})
	mustStep(t, pr, automaton.ReverseNode{U: 2})
	if !pr.Orientation().PointsTo(2, 1) {
		t.Error("edge {1,2} should point 2→1")
	}
	if !pr.Orientation().PointsTo(3, 2) {
		t.Error("edge {2,3} must still point 3→2 (it was in list[2])")
	}
}

func TestPRRunsToDestinationOriented(t *testing.T) {
	in := badChainInit(t, 2) // nodes 0,1,2; edges 0→1→2; dest 0
	pr := NewPRAutomaton(in)
	mustStep(t, pr, automaton.ReverseNode{U: 2}) // 2→1, list[1]={2}
	mustStep(t, pr, automaton.ReverseNode{U: 1}) // 1 reverses {0,1} only
	if !pr.Quiescent() {
		t.Fatal("should be quiescent")
	}
	if !graph.IsDestinationOriented(pr.Orientation(), 0) {
		t.Error("not destination oriented")
	}

	in2 := badChainInit(t, 3)
	pr2 := NewPRAutomaton(in2)
	for !pr2.Quiescent() {
		acts := pr2.Enabled()
		mustStep(t, pr2, acts[0])
	}
	if !graph.IsDestinationOriented(pr2.Orientation(), 0) {
		t.Error("bad chain not repaired")
	}
}

// TestPRFullListBranch drives a node into the list[u] = nbrs(u) case, where
// PR reverses *all* incident edges. A degree-1 node u whose single
// neighbour reverses toward it between u's steps reaches list = nbrs.
func TestPRFullListBranch(t *testing.T) {
	// Path 0-1-2-3, dest 0, all edges away from 0. Node 3 (degree 1) steps,
	// then 2 steps (reversing {1,2} only), then 1 steps reversing {0,1}.
	// Then 2 is a sink again: 1 reversed toward it? No — 1 reversed {0,1}.
	// Instead: after 3 and 2 step, node 3 is a sink again with
	// list[3] = {2} = nbrs(3)? Node 2 reversed only {1,2}, so no.
	// The full-list branch at node 3 occurs when 2 reverses {2,3}: that is
	// 2's own full-list case. Drive the chain to quiescence and assert the
	// branch executed by checking node behaviour on the longer chain, where
	// interior nodes provably hit it (see Welch & Walter): on the bad chain
	// every interior node alternates, and node 3's second step has
	// list[3] = {2} = nbrs(3).
	in := badChainInit(t, 3)
	pr := NewPRAutomaton(in)
	mustStep(t, pr, automaton.ReverseNode{U: 3}) // 3 reverses {2,3}
	mustStep(t, pr, automaton.ReverseNode{U: 2}) // 2 reverses {1,2}; list[2]={3}
	mustStep(t, pr, automaton.ReverseNode{U: 1}) // 1 reverses {0,1}; list[1]={2}
	// Orientation now: 1→0, 2→1, 3→2 — destination oriented, quiescent.
	if !pr.Quiescent() {
		t.Fatal("expected quiescence")
	}
	// For the full-list branch use the reversed-destination variant:
	// same chain, dest 3. Initial 0→1→2→3 is already oriented to 3.
	// Orient away from 3 instead: 1→0, 2→1, 3→2 with dest 3 means node 0
	// is the sink; chain repairs rightward and interior nodes hit the
	// full-list case.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	o, err := graph.OrientationFromDirected(g, [][2]graph.NodeID{{1, 0}, {2, 1}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	in2, err := NewInit(g, o, 3)
	if err != nil {
		t.Fatal(err)
	}
	pr2 := NewPRAutomaton(in2)
	mustStep(t, pr2, automaton.ReverseNode{U: 0}) // 0 reverses {0,1}: 0→1
	// Node 1: edges 0→1, 2→1 → sink, list[1] = {0}. Reverses {1,2} only.
	mustStep(t, pr2, automaton.ReverseNode{U: 1})
	// Node 2: edges 1→2, 3→2 → sink, list[2] = {1}. Reverses {2,3}? No:
	// nbrs(2)\list = {3}; edge {2,3} points 3→2, reversing gives 2→3.
	mustStep(t, pr2, automaton.ReverseNode{U: 2})
	if !graph.IsDestinationOriented(pr2.Orientation(), 3) {
		t.Fatal("chain should be oriented to 3")
	}
	// Node 0 is a sink again (1 never reversed {0,1}? it did not — node 1
	// reversed only {1,2}). Check: edges now 0→1? No, node 1 reversed {1,2}
	// leaving {0,1} as 0→1 … so node 0 is a source, not a sink. Quiescent.
	if !pr2.Quiescent() {
		t.Fatal("expected quiescence")
	}
	// Full-list branch witnessed directly: star destination far away.
	// Diamond: edges {0,1},{1,2},{0,3},{2,3}; dest 3; initial 1→0, 1→2,
	// 3→0, 3→2. Sinks 0 and 2; both step reversing all in-nbrs (empty
	// lists). Then node 1 (initial source) is a sink with
	// list[1] = {0,2} = nbrs(1): the full-list branch — it reverses BOTH.
	bd := graph.NewBuilder(4)
	bd.AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 3).AddEdge(2, 3)
	gd, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}
	od, err := graph.OrientationFromDirected(gd, [][2]graph.NodeID{{1, 0}, {1, 2}, {3, 0}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := NewInit(gd, od, 3)
	if err != nil {
		t.Fatal(err)
	}
	prd := NewPRAutomaton(ind)
	mustStep(t, prd, automaton.NewReverseSet([]graph.NodeID{0, 2}))
	if got := prd.List(1); len(got) != 2 {
		t.Fatalf("list[1] = %v, want {0,2}", got)
	}
	mustStep(t, prd, automaton.ReverseNode{U: 1})
	if !prd.Orientation().PointsTo(1, 0) || !prd.Orientation().PointsTo(1, 2) {
		t.Error("full-list step must reverse every incident edge")
	}
	if got := prd.List(1); len(got) != 0 {
		t.Errorf("list[1] = %v, want empty after step", got)
	}
}

func mustStep(t *testing.T, a automaton.Automaton, act automaton.Action) {
	t.Helper()
	if err := a.Step(act); err != nil {
		t.Fatalf("step %s: %v", act, err)
	}
}

// allAutomata returns a fresh instance of every Variants entry and of BLL
// with every label unmarked.
func allAutomata(t *testing.T, in *Init) []automaton.Automaton {
	t.Helper()
	var as []automaton.Automaton
	for _, v := range Variants {
		as = append(as, v.New(in))
	}
	bll, err := NewBLL(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(as, bll)
}

// TestPRActionValidation checks that every automaton rejects a malformed or
// disabled action with the right error class and leaves its state as it
// was. The set cases apply to the reverse(S) automata (PR and FR), the
// wrong-form case to the reverse(u) ones.
func TestPRActionValidation(t *testing.T) {
	in := badChainInit(t, 3)
	const (
		setOnly = iota + 1
		nodeOnly
	)
	tests := []struct {
		name    string
		act     automaton.Action
		only    int
		wantErr error
	}{
		{name: "empty set", act: automaton.ReverseSet{}, only: setOnly, wantErr: automaton.ErrInvalidAction},
		{name: "duplicate", act: automaton.ReverseSet{S: []graph.NodeID{3, 3}}, only: setOnly, wantErr: automaton.ErrInvalidAction},
		{name: "set to single-node variant", act: automaton.ReverseSet{S: []graph.NodeID{3}}, only: nodeOnly, wantErr: automaton.ErrInvalidAction},
		{name: "destination", act: automaton.ReverseNode{U: 0}, wantErr: automaton.ErrInvalidAction},
		{name: "out of range", act: automaton.ReverseNode{U: 99}, wantErr: automaton.ErrInvalidAction},
		{name: "non-sink", act: automaton.ReverseNode{U: 1}, wantErr: automaton.ErrPreconditionFailed},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, a := range allAutomata(t, in) {
				_, sets := a.Enabled()[0].(automaton.ReverseSet)
				if (tt.only == setOnly && !sets) || (tt.only == nodeOnly && sets) {
					continue
				}
				t.Run(a.Name(), func(t *testing.T) {
					key := a.(StateKeyer).StateKey()
					if err := a.Step(tt.act); !errors.Is(err, tt.wantErr) {
						t.Errorf("Step(%v) error = %v, want %v", tt.act, err, tt.wantErr)
					}
					if a.Steps() != 0 || a.TotalReversals() != 0 || a.(StateKeyer).StateKey() != key {
						t.Error("failed step mutated state")
					}
				})
			}
		})
	}
}

func TestNewPRParityAlternation(t *testing.T) {
	in := badChainInit(t, 3)
	np := NewNewPR(in)
	// Node 3 is an initial sink: in-nbrs(3) = {2}, out-nbrs(3) = ∅.
	if np.Parity(3) != Even {
		t.Fatal("initial parity must be even")
	}
	mustStep(t, np, automaton.ReverseNode{U: 3})
	if np.Parity(3) != Odd {
		t.Error("parity must flip after a step")
	}
	if np.Count(3) != 1 {
		t.Errorf("count = %d, want 1", np.Count(3))
	}
	if !np.Orientation().PointsTo(3, 2) {
		t.Error("even step must reverse initial in-neighbours")
	}
	if np.DummySteps() != 0 {
		t.Error("no dummy step expected")
	}
}

// TestNewPRDummyAccounting exercises the "dummy" step: an initial source
// that later becomes a sink reverses nothing on its even-parity step.
// Diamond: edges {0,1},{1,2},{0,3},{2,3}; destination 3; initial 1→0, 1→2,
// 3→0, 3→2. Node 1 is the initial source; nodes 0 and 2 are sinks.
func TestNewPRDummyAccounting(t *testing.T) {
	bd := graph.NewBuilder(4)
	bd.AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 3).AddEdge(2, 3)
	gd, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}
	od, err := graph.OrientationFromDirected(gd, [][2]graph.NodeID{{1, 0}, {1, 2}, {3, 0}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := NewInit(gd, od, 3)
	if err != nil {
		t.Fatal(err)
	}
	np := NewNewPR(ind)
	mustStep(t, np, automaton.ReverseNode{U: 0}) // reverses in-nbrs {1,3}
	mustStep(t, np, automaton.ReverseNode{U: 2}) // reverses in-nbrs {1,3}
	if np.DummySteps() != 0 {
		t.Fatal("initial sinks take real steps")
	}
	// Node 1 now has 0→1 and 2→1: a sink. It was an initial source:
	// in-nbrs(1) = ∅, parity even → dummy step.
	if !np.Orientation().IsSink(1) {
		t.Fatal("node 1 should be a sink now")
	}
	mustStep(t, np, automaton.ReverseNode{U: 1})
	if np.DummySteps() != 1 {
		t.Fatalf("DummySteps = %d, want 1", np.DummySteps())
	}
	if np.Count(1) != 1 {
		t.Errorf("count[1] = %d, want 1", np.Count(1))
	}
	// Still a sink; next step reverses out-nbrs(1) = {0,2} = all edges.
	mustStep(t, np, automaton.ReverseNode{U: 1})
	if np.Orientation().IsSink(1) {
		t.Error("node 1 must not be a sink after the real reversal")
	}
	if np.DummySteps() != 1 {
		t.Error("second step must be real")
	}
}

func TestFRReversesEverything(t *testing.T) {
	in := badChainInit(t, 3)
	fr := NewFR(in)
	mustStep(t, fr, automaton.ReverseNode{U: 3})
	mustStep(t, fr, automaton.ReverseNode{U: 2})
	// FR at node 2 reverses BOTH edges (unlike PR, which skips {2,3}).
	if !fr.Orientation().PointsTo(2, 1) {
		t.Error("edge {1,2} should point 2→1")
	}
	if !fr.Orientation().PointsTo(2, 3) {
		t.Error("FR must reverse {2,3} back")
	}
	if fr.TotalReversals() != 3 {
		t.Errorf("work = %d, want 3", fr.TotalReversals())
	}
}

func TestGBPairInitialOrientationMatchesHeights(t *testing.T) {
	in := badChainInit(t, 4)
	gb := NewGBPair(in)
	o := gb.Orientation()
	for _, e := range in.Graph().Edges() {
		hu, hv := gb.Height(e.U), gb.Height(e.V)
		if o.PointsTo(e.U, e.V) != hv.Less(hu) {
			t.Errorf("edge {%d,%d}: orientation inconsistent with heights %v,%v",
				e.U, e.V, hu, hv)
		}
	}
}

func TestBLLDefaultEqualsPRStepwise(t *testing.T) {
	in := badChainInit(t, 5)
	bll, err := NewBLL(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr := NewOneStepPR(in)
	for step := 0; step < 1000; step++ {
		if pr.Quiescent() {
			if !bll.Quiescent() {
				t.Fatal("PR quiescent but BLL not")
			}
			break
		}
		act := pr.Enabled()[0]
		mustStep(t, pr, act)
		u := act.Participants()[0]
		mustStep(t, bll, automaton.ReverseNode{U: u})
		if !pr.Orientation().Equal(bll.Orientation()) {
			t.Fatalf("orientations diverge at step %d", step)
		}
	}
	if pr.TotalReversals() != bll.TotalReversals() {
		t.Errorf("work: PR %d != BLL %d", pr.TotalReversals(), bll.TotalReversals())
	}
}

func TestBLLRejectsBadMarks(t *testing.T) {
	in := badChainInit(t, 3)
	if _, err := NewBLL(in, map[graph.NodeID][]graph.NodeID{99: {0}}); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := NewBLL(in, map[graph.NodeID][]graph.NodeID{0: {3}}); err == nil {
		t.Error("non-edge mark accepted")
	}
}

// TestCloneIsolation steps a clone of every automaton and checks that the
// original's steps, orientation and full state did not move.
func TestCloneIsolation(t *testing.T) {
	in := badChainInit(t, 4)
	for _, v := range allAutomata(t, in) {
		t.Run(v.Name(), func(t *testing.T) {
			key := v.(StateKeyer).StateKey()
			clone := v.(automaton.Cloner).CloneAutomaton()
			mustStep(t, clone, clone.Enabled()[0])
			if v.Steps() != 0 {
				t.Error("stepping the clone mutated the original")
			}
			if !v.Orientation().Equal(NewFR(in).Orientation()) {
				t.Error("original orientation changed")
			}
			if got := v.(StateKeyer).StateKey(); got != key {
				t.Errorf("original state changed: %s -> %s", key, got)
			}
		})
	}
}
