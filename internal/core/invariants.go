package core

import (
	"fmt"
	"slices"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// This file turns every invariant, corollary and theorem in the paper into
// an executable checker. Engines run these after every step of randomized
// executions, giving a machine-checked counterpart to the inductive proofs.

// listHolder abstracts PR and OneStepPR, whose list-based invariants
// (Section 3.2) are identical.
type listHolder interface {
	automaton.Automaton
	Init() *Init
	List(u graph.NodeID) []graph.NodeID
}

// CheckInvariant31 verifies Invariant 3.1: for every edge {u,v},
// dir[u,v] = in iff dir[v,u] = out. Our Orientation enforces this by
// construction (a single "toward" endpoint per edge), so the checker
// verifies the two views it exposes are coherent with each other and with
// the in-degree bookkeeping.
func CheckInvariant31(a automaton.Automaton) error {
	o := a.Orientation()
	g := a.Graph()
	for _, e := range g.Edges() {
		duv, ok1 := o.Dir(e.U, e.V)
		dvu, ok2 := o.Dir(e.V, e.U)
		if !ok1 || !ok2 {
			return fmt.Errorf("edge {%d,%d}: direction missing", e.U, e.V)
		}
		if duv == dvu {
			return fmt.Errorf("edge {%d,%d}: dir[u,v] = dir[v,u] = %v", e.U, e.V, duv)
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		id := graph.NodeID(u)
		if o.InDegree(id) != len(o.InNeighbors(id)) {
			return fmt.Errorf("node %d: in-degree cache %d != recomputed %d",
				u, o.InDegree(id), len(o.InNeighbors(id)))
		}
	}
	return nil
}

// CheckInvariant32 verifies Invariant 3.2 on a PR or OneStepPR state: for
// every node u exactly one of
//
//	(1) all initial out-neighbours have incoming edges to u and
//	    list[u] = { v ∈ in-nbrs(u) : dir[u,v] = in }, or
//	(2) all initial in-neighbours have incoming edges to u and
//	    list[u] = { v ∈ out-nbrs(u) : dir[u,v] = in }
//
// holds.
func CheckInvariant32(a automaton.Automaton) error {
	p, ok := a.(listHolder)
	if !ok {
		return fmt.Errorf("invariant 3.2 applies to PR/OneStepPR, got %s", a.Name())
	}
	in := p.Init()
	o := p.Orientation()
	for u := 0; u < in.g.NumNodes(); u++ {
		id := graph.NodeID(u)
		part1 := invariant32Part(o, in.OutNbrs(id), in.InNbrs(id), id, p.List(id))
		part2 := invariant32Part(o, in.InNbrs(id), in.OutNbrs(id), id, p.List(id))
		if part1 == part2 {
			return fmt.Errorf("node %d: part1=%v part2=%v (exactly one must hold); list=%v",
				u, part1, part2, p.List(id))
		}
	}
	return nil
}

// invariant32Part checks one disjunct of Invariant 3.2: every node of
// allIncoming has an edge directed toward u, and list equals the subset of
// listSide whose edges are directed toward u.
func invariant32Part(o *graph.Orientation, allIncoming, listSide []graph.NodeID, u graph.NodeID, list []graph.NodeID) bool {
	for _, w := range allIncoming {
		if !o.PointsTo(w, u) {
			return false
		}
	}
	// Both sides are ascending, so they are equal as sets iff equal as
	// sequences.
	k := 0
	for _, v := range listSide {
		if !o.PointsTo(v, u) {
			continue
		}
		if k == len(list) || list[k] != v {
			return false
		}
		k++
	}
	return k == len(list)
}

// CheckCorollary33 verifies Corollary 3.3: list[u] ⊆ in-nbrs(u) or
// list[u] ⊆ out-nbrs(u) for every node u.
func CheckCorollary33(a automaton.Automaton) error {
	p, ok := a.(listHolder)
	if !ok {
		return fmt.Errorf("corollary 3.3 applies to PR/OneStepPR, got %s", a.Name())
	}
	in := p.Init()
	for u := 0; u < in.g.NumNodes(); u++ {
		id := graph.NodeID(u)
		list := p.List(id)
		if !subset(list, in.InNbrs(id)) && !subset(list, in.OutNbrs(id)) {
			return fmt.Errorf("node %d: list %v ⊄ in-nbrs %v and ⊄ out-nbrs %v",
				u, list, in.InNbrs(id), in.OutNbrs(id))
		}
	}
	return nil
}

// CheckCorollary34 verifies Corollary 3.4: whenever u is a sink,
// list[u] = in-nbrs(u) or list[u] = out-nbrs(u).
func CheckCorollary34(a automaton.Automaton) error {
	p, ok := a.(listHolder)
	if !ok {
		return fmt.Errorf("corollary 3.4 applies to PR/OneStepPR, got %s", a.Name())
	}
	in := p.Init()
	o := p.Orientation()
	for u := 0; u < in.g.NumNodes(); u++ {
		id := graph.NodeID(u)
		if !o.IsSink(id) {
			continue
		}
		list := p.List(id)
		if !slices.Equal(list, in.InNbrs(id)) && !slices.Equal(list, in.OutNbrs(id)) {
			return fmt.Errorf("sink %d: list %v != in-nbrs %v and != out-nbrs %v",
				u, list, in.InNbrs(id), in.OutNbrs(id))
		}
	}
	return nil
}

// subset reports whether every element of the ascending slice a is in the
// ascending slice b.
func subset(a, b []graph.NodeID) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

// CheckInvariant41 verifies Invariant 4.1 on a NewPR state: for neighbours
// u, v with equal parity, the edge is directed left→right if the parity is
// even and right→left if it is odd (left/right per the initial embedding).
func CheckInvariant41(a automaton.Automaton) error {
	p, ok := a.(*NewPR)
	if !ok {
		return fmt.Errorf("invariant 4.1 applies to NewPR, got %s", a.Name())
	}
	in := p.Init()
	o := p.Orientation()
	emb := in.Embedding()
	for _, e := range in.g.Edges() {
		u, v := e.U, e.V
		if p.Parity(u) != p.Parity(v) {
			continue
		}
		// Identify the left and right endpoints.
		left, right := u, v
		if emb.LeftOf(v, u) {
			left, right = v, u
		}
		switch p.Parity(u) {
		case Even:
			if !o.PointsTo(left, right) {
				return fmt.Errorf("edge {%d,%d}: both even but directed right→left", u, v)
			}
		case Odd:
			if !o.PointsTo(right, left) {
				return fmt.Errorf("edge {%d,%d}: both odd but directed left→right", u, v)
			}
		}
	}
	return nil
}

// CheckInvariant42 verifies Invariant 4.2 on a NewPR state, all four parts:
//
//	(a) neighbour counts differ by at most one;
//	(b) count[u] odd and v right of u ⇒ count[v] = count[u];
//	(c) count[u] even and v left of u ⇒ count[v] = count[u];
//	(d) count[u] > count[v] ⇒ the edge is directed u→v.
func CheckInvariant42(a automaton.Automaton) error {
	p, ok := a.(*NewPR)
	if !ok {
		return fmt.Errorf("invariant 4.2 applies to NewPR, got %s", a.Name())
	}
	in := p.Init()
	o := p.Orientation()
	emb := in.Embedding()
	for _, e := range in.g.Edges() {
		for _, pair := range [2][2]graph.NodeID{{e.U, e.V}, {e.V, e.U}} {
			u, v := pair[0], pair[1]
			cu, cv := p.Count(u), p.Count(v)
			if cv < cu-1 || cv > cu+1 {
				return fmt.Errorf("(a) nodes %d,%d: counts %d,%d differ by more than 1", u, v, cu, cv)
			}
			if cu%2 == 1 && emb.LeftOf(u, v) && cv != cu {
				return fmt.Errorf("(b) node %d count %d odd, right neighbour %d count %d != %d",
					u, cu, v, cv, cu)
			}
			if cu%2 == 0 && emb.LeftOf(v, u) && cv != cu {
				return fmt.Errorf("(c) node %d count %d even, left neighbour %d count %d != %d",
					u, cu, v, cv, cu)
			}
			if cu > cv && !o.PointsTo(u, v) {
				return fmt.Errorf("(d) count[%d]=%d > count[%d]=%d but edge not directed %d→%d",
					u, cu, v, cv, u, v)
			}
		}
	}
	return nil
}

// CheckAcyclic verifies Theorem 4.3 / 5.5: the current directed graph G' is
// acyclic. It applies to every automaton variant.
func CheckAcyclic(a automaton.Automaton) error {
	if cycle := graph.FindCycle(a.Orientation()); cycle != nil {
		return fmt.Errorf("directed cycle %v in %s state after %d steps", cycle, a.Name(), a.Steps())
	}
	return nil
}

// NewPRInvariants returns the full invariant suite for NewPR states
// (Invariants 4.1, 4.2 and the acyclicity theorem, plus edge coherence).
func NewPRInvariants() []automaton.Invariant {
	return []automaton.Invariant{
		{Name: "3.1-edge-coherence", Check: CheckInvariant31},
		{Name: "4.1-parity-direction", Check: CheckInvariant41},
		{Name: "4.2-counts", Check: CheckInvariant42},
		{Name: "4.3-acyclicity", Check: CheckAcyclic},
	}
}

// ListInvariants returns the invariant suite for PR and OneStepPR states
// (Section 3.2 properties plus acyclicity via Theorem 5.5).
func ListInvariants() []automaton.Invariant {
	return []automaton.Invariant{
		{Name: "3.1-edge-coherence", Check: CheckInvariant31},
		{Name: "3.2-list-shape", Check: CheckInvariant32},
		{Name: "3.3-list-subset", Check: CheckCorollary33},
		{Name: "3.4-sink-list", Check: CheckCorollary34},
		{Name: "5.5-acyclicity", Check: CheckAcyclic},
	}
}

// BasicInvariants returns the invariant suite applicable to every variant.
func BasicInvariants() []automaton.Invariant {
	return []automaton.Invariant{
		{Name: "3.1-edge-coherence", Check: CheckInvariant31},
		{Name: "acyclicity", Check: CheckAcyclic},
	}
}
