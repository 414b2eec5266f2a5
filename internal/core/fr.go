package core

import "linkreversal/internal/automaton"

// FR is the Full Reversal automaton (Gafni & Bertsekas 1981): whenever a
// node is a sink it reverses *all* of its incident edges. Like PR, FR admits
// set actions reverse(S) in which several (necessarily non-adjacent) sinks
// step together; ReverseNode actions are accepted as singleton sets.
//
// FR is the paper's comparison baseline: its acyclicity argument is the
// one-paragraph proof reproduced in Section 1, and both FR and PR share the
// Θ(n_b²) worst-case total-reversal bound.
type FR struct {
	machine
}

// NewFR creates an FR automaton in its initial state.
func NewFR(in *Init) *FR { return &FR{newMachine("FR", in)} }

// Enabled implements automaton.Automaton. It returns one singleton
// reverse(S) action per enabled sink.
func (f *FR) Enabled() []automaton.Action { return f.enabledSets() }

// Step implements automaton.Automaton.
func (f *FR) Step(a automaton.Action) error {
	s, err := f.checkSet(a)
	if err != nil {
		return err
	}
	for _, u := range s {
		for _, v := range f.init.g.Neighbors(u) {
			f.reverse(u, v)
		}
	}
	f.steps++
	return nil
}

// CloneAutomaton implements automaton.Cloner.
func (f *FR) CloneAutomaton() automaton.Automaton { return f.Clone() }

// Clone returns a deep copy sharing the immutable Init.
func (f *FR) Clone() *FR { return &FR{f.machine.clone()} }
