package core

import "linkreversal/internal/automaton"

// Variant is one sequential automaton of this package together with the
// invariant suite that every reachable state of it satisfies.
type Variant struct {
	Name       string
	New        func(*Init) automaton.Automaton
	Invariants []automaton.Invariant
}

// Variants lists PR, OneStepPR, NewPR, FR, GBPair and GBFull, in that order.
// BLL is not listed: whether its states stay acyclic depends on its initial
// labels.
var Variants = []Variant{
	{"PR", func(in *Init) automaton.Automaton { return NewPRAutomaton(in) }, ListInvariants()},
	{"OneStepPR", func(in *Init) automaton.Automaton { return NewOneStepPR(in) }, ListInvariants()},
	{"NewPR", func(in *Init) automaton.Automaton { return NewNewPR(in) }, NewPRInvariants()},
	{"FR", func(in *Init) automaton.Automaton { return NewFR(in) }, BasicInvariants()},
	{"GBPair", func(in *Init) automaton.Automaton { return NewGBPair(in) }, BasicInvariants()},
	{"GBFull", func(in *Init) automaton.Automaton { return NewGBFull(in) }, BasicInvariants()},
}

// VariantNamed returns the entry of Variants called name.
func VariantNamed(name string) (Variant, bool) {
	for _, v := range Variants {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}

// Every automaton of this package can be cloned and model-checked.
var _ = []interface {
	automaton.Automaton
	automaton.Cloner
	StateKeyer
}{(*PR)(nil), (*OneStepPR)(nil), (*NewPR)(nil), (*FR)(nil), (*GBPair)(nil), (*GBFull)(nil), (*BLL)(nil)}
