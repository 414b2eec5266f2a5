package core

import (
	"strconv"
	"strings"

	"linkreversal/internal/graph"
)

// StateKeyer is implemented by automata whose full state can be serialized
// to a canonical string, enabling exhaustive reachable-state enumeration by
// the model checker (internal/mc).
type StateKeyer interface {
	// StateKey returns a canonical encoding of the automaton's state.
	// Two automata of the same variant are in the same state iff their
	// keys are equal.
	StateKey() string
}

// key encodes the orientation as one bit per edge in edge-index order,
// followed by whatever rest appends.
func (m *machine) key(rest func(b *strings.Builder)) string {
	var b strings.Builder
	for _, d := range m.orient.DirectedEdges() {
		e := graph.NormalizedEdge(d[0], d[1])
		if d[0] == e.U {
			b.WriteByte('>')
		} else {
			b.WriteByte('<')
		}
	}
	rest(&b)
	return b.String()
}

// key appends the per-node sets in node order, each in ascending (slot)
// order.
func (l lists) key(b *strings.Builder) {
	for u := range l.in.g.NumNodes() {
		b.WriteByte('|')
		row := l.row(graph.NodeID(u))
		for i, v := range l.in.g.Neighbors(graph.NodeID(u)) {
			if row.Test(i) {
				b.WriteString(strconv.Itoa(int(v)))
				b.WriteByte(',')
			}
		}
	}
}

// StateKey implements StateKeyer: orientation plus all lists.
func (p *PR) StateKey() string { return p.key(p.list.key) }

// StateKey implements StateKeyer: orientation plus all lists.
func (p *OneStepPR) StateKey() string { return p.key(p.list.key) }

// StateKey implements StateKeyer: orientation plus all step counts. Counts
// are part of the paper's (history-augmented) state; executions terminate,
// so the reachable space stays finite.
func (p *NewPR) StateKey() string {
	return p.key(func(b *strings.Builder) {
		for _, c := range p.count {
			b.WriteByte('|')
			b.WriteString(strconv.Itoa(c))
		}
	})
}

// StateKey implements StateKeyer: FR's state is the orientation alone.
func (f *FR) StateKey() string { return f.key(func(*strings.Builder) {}) }

// StateKey implements StateKeyer: orientation plus height triples.
func (g *GBPair) StateKey() string {
	return g.key(func(b *strings.Builder) {
		for _, h := range g.heights {
			b.WriteByte('|')
			b.WriteString(strconv.Itoa(h.A))
			b.WriteByte(':')
			b.WriteString(strconv.Itoa(h.B))
		}
	})
}

// StateKey implements StateKeyer: orientation plus height pairs.
func (g *GBFull) StateKey() string {
	return g.key(func(b *strings.Builder) {
		for _, h := range g.heights {
			b.WriteByte('|')
			b.WriteString(strconv.Itoa(h.A))
		}
	})
}

// StateKey implements StateKeyer: orientation plus all mark sets.
func (b *BLL) StateKey() string { return b.key(b.marked.key) }
