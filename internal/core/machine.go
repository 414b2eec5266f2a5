package core

import (
	"fmt"
	"slices"

	"linkreversal/internal/automaton"
	"linkreversal/internal/bitset"
	"linkreversal/internal/graph"
)

// machine is the part every automaton of this package shares: the name, the
// immutable Init, the current orientation G′ and the step and reversal
// counts. Each automaton embeds it and declares only its own state.
type machine struct {
	name   string
	init   *Init
	orient *graph.Orientation
	steps  int
	work   int
}

func newMachine(name string, in *Init) machine {
	return machine{name: name, init: in, orient: in.InitialOrientation()}
}

// canStep reports whether u may take a reverse step: u is a sink, u is not
// the destination, and u has at least one neighbour (the paper assumes a
// connected graph; isolated nodes would otherwise step forever).
func (m *machine) canStep(u graph.NodeID) bool {
	return u != m.init.dest && m.init.g.Degree(u) > 0 && m.orient.IsSink(u)
}

// sinks returns the enabled sinks in ascending order.
func (m *machine) sinks() []graph.NodeID {
	var out []graph.NodeID
	for u := range m.init.g.NumNodes() {
		if id := graph.NodeID(u); m.canStep(id) {
			out = append(out, id)
		}
	}
	return out
}

// Name implements automaton.Automaton.
func (m *machine) Name() string { return m.name }

// Graph implements automaton.Automaton.
func (m *machine) Graph() *graph.Graph { return m.init.g }

// Orientation implements automaton.Automaton.
func (m *machine) Orientation() *graph.Orientation { return m.orient }

// Destination implements automaton.Automaton.
func (m *machine) Destination() graph.NodeID { return m.init.dest }

// Init returns the immutable initial data shared by all variants.
func (m *machine) Init() *Init { return m.init }

// Steps implements automaton.Automaton.
func (m *machine) Steps() int { return m.steps }

// TotalReversals returns the total number of edge reversals performed.
func (m *machine) TotalReversals() int { return m.work }

// Quiescent implements automaton.Automaton.
func (m *machine) Quiescent() bool { return len(m.sinks()) == 0 }

// Enabled implements automaton.Automaton. It returns one reverse(u) action
// per enabled sink.
func (m *machine) Enabled() []automaton.Action {
	sinks := m.sinks()
	acts := make([]automaton.Action, len(sinks))
	for i, u := range sinks {
		acts[i] = automaton.ReverseNode{U: u}
	}
	return acts
}

// enabledSets returns one singleton reverse(S) action per enabled sink; any
// union of enabled singletons is also enabled (no two sinks are ever
// adjacent).
func (m *machine) enabledSets() []automaton.Action {
	acts := m.Enabled()
	for i, a := range acts {
		acts[i] = automaton.ReverseSet{S: a.Participants()}
	}
	return acts
}

// checkNode checks a reverse(u) action and returns u: u must be a node
// other than the destination, and an enabled sink.
func (m *machine) checkNode(a automaton.Action) (graph.NodeID, error) {
	act, ok := a.(automaton.ReverseNode)
	if !ok {
		return 0, fmt.Errorf("%w: %s accepts reverse(u), got %T", automaton.ErrInvalidAction, m.name, a)
	}
	u := act.U
	if !m.init.g.ValidNode(u) {
		return 0, fmt.Errorf("%w: node %d out of range", automaton.ErrInvalidAction, u)
	}
	if u == m.init.dest {
		return 0, fmt.Errorf("%w: destination %d cannot step", automaton.ErrInvalidAction, u)
	}
	if !m.canStep(u) {
		return 0, fmt.Errorf("%w: node %d is not an enabled sink", automaton.ErrPreconditionFailed, u)
	}
	return u, nil
}

// checkSet checks a reverse(S) action and returns S: a non-empty set of
// distinct nodes, none the destination, all enabled sinks. A reverse(u)
// action counts as reverse({u}).
func (m *machine) checkSet(a automaton.Action) ([]graph.NodeID, error) {
	var s []graph.NodeID
	switch act := a.(type) {
	case automaton.ReverseSet:
		s = act.S
	case automaton.ReverseNode:
		s = []graph.NodeID{act.U}
	default:
		return nil, fmt.Errorf("%w: %s accepts reverse(S), got %T", automaton.ErrInvalidAction, m.name, a)
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("%w: empty set", automaton.ErrInvalidAction)
	}
	seen := make(map[graph.NodeID]struct{}, len(s))
	for _, u := range s {
		if !m.init.g.ValidNode(u) {
			return nil, fmt.Errorf("%w: node %d out of range", automaton.ErrInvalidAction, u)
		}
		if u == m.init.dest {
			return nil, fmt.Errorf("%w: destination %d in S", automaton.ErrInvalidAction, u)
		}
		if _, dup := seen[u]; dup {
			return nil, fmt.Errorf("%w: node %d repeated in S", automaton.ErrInvalidAction, u)
		}
		seen[u] = struct{}{}
	}
	for _, u := range s {
		if !m.canStep(u) {
			return nil, fmt.Errorf("%w: node %d is not an enabled sink", automaton.ErrPreconditionFailed, u)
		}
	}
	return s, nil
}

// reverse flips the edge {u,v} and counts the reversal.
func (m *machine) reverse(u, v graph.NodeID) {
	// Reverse cannot fail: v is a neighbour of u by construction.
	if err := m.orient.Reverse(u, v); err != nil {
		panic(fmt.Sprintf("core: reverse existing edge {%d,%d}: %v", u, v, err))
	}
	m.work++
}

// reverseListed applies PR's rule to the sink u, with l[u] as its list:
// u reverses the edges to nbrs(u) \ l[u], or all of its edges when
// l[u] = nbrs(u); every neighbour v whose edge was reversed adds u to l[v];
// then l[u] is emptied.
func (m *machine) reverseListed(l lists, u graph.NodeID) {
	nbrs := m.init.g.Neighbors(u)
	row := l.row(u)
	full := row.Count() == len(nbrs)
	for i, v := range nbrs {
		if !full && row.Test(i) {
			continue
		}
		m.reverse(u, v)
		l.add(v, u)
	}
	row.ClearAll()
}

// clone returns a copy of m with its own orientation.
func (m *machine) clone() machine {
	c := *m
	c.orient = m.orient.Clone()
	return c
}

// lists holds one neighbour set per node, PR's list[u] or BLL's marks, as
// one bit per slot of the graph's rows: bit i of u's row is set when
// Neighbors(u)[i] is in l[u]. All the sets share one word array, so a
// clone is one copy.
type lists struct {
	in   *Init
	bits []uint64
}

func newLists(in *Init) lists {
	return lists{in: in, bits: make([]uint64, bitset.Words(2*in.g.NumEdges()))}
}

// row returns the bits of l[u].
func (l lists) row(u graph.NodeID) bitset.View {
	return bitset.Slice(l.bits, l.in.g.RowStart(u), l.in.g.Degree(u))
}

// add puts the neighbour v of u into l[u].
func (l lists) add(u, v graph.NodeID) {
	i, _ := slices.BinarySearch(l.in.g.Neighbors(u), v)
	l.row(u).Set(i)
}

// members returns l[u] in ascending order.
func (l lists) members(u graph.NodeID) []graph.NodeID {
	row := l.row(u)
	out := make([]graph.NodeID, 0, row.Count())
	for i, v := range l.in.g.Neighbors(u) {
		if row.Test(i) {
			out = append(out, v)
		}
	}
	return out
}

// clone returns a copy of l with its own bits.
func (l lists) clone() lists { return lists{in: l.in, bits: slices.Clone(l.bits)} }
