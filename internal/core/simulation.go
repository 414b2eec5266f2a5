package core

import (
	"fmt"
	"math/rand"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// This file implements the simulation relations of Section 5 as executable
// forward-simulation drivers:
//
//	R′ ⊆ states(PR) × states(OneStepPR)   (Section 5.2)
//	R  ⊆ states(OneStepPR) × states(NewPR) (Section 5.3)
//
// A SimulationDriver holds one instance of each automaton and advances them
// in lockstep: for every reverse(S) step of PR it performs the corresponding
// reverse(u) sequence in OneStepPR (Lemma 5.1) and, for each of those, one
// or two reverse(w) steps in NewPR (Lemma 5.3). After every correspondence
// point it checks both relations clause by clause. Any violation is
// reported with the offending clause — this is the machine-checked analogue
// of Theorems 5.2 and 5.4.

// RelationViolationError describes a failed simulation-relation clause.
type RelationViolationError struct {
	Relation string // "R'" or "R"
	Clause   string
	Detail   string
}

// Error implements error.
func (e *RelationViolationError) Error() string {
	return fmt.Sprintf("core: relation %s clause %s violated: %s", e.Relation, e.Clause, e.Detail)
}

// CheckRelationRPrime verifies (s, t) ∈ R′ for s a PR state and t a
// OneStepPR state: (1) s.G′ = t.G′ and (2) s.list[u] = t.list[u] for all u.
func CheckRelationRPrime(s *PR, t *OneStepPR) error {
	if !s.Orientation().Equal(t.Orientation()) {
		return &RelationViolationError{
			Relation: "R'", Clause: "1",
			Detail: fmt.Sprintf("PR %v != OneStepPR %v", s.Orientation(), t.Orientation()),
		}
	}
	for u := 0; u < s.Graph().NumNodes(); u++ {
		id := graph.NodeID(u)
		ls, lt := s.List(id), t.List(id)
		if len(ls) != len(lt) {
			return &RelationViolationError{
				Relation: "R'", Clause: "2",
				Detail: fmt.Sprintf("node %d: PR list %v != OneStepPR list %v", u, ls, lt),
			}
		}
		for i := range ls {
			if ls[i] != lt[i] {
				return &RelationViolationError{
					Relation: "R'", Clause: "2",
					Detail: fmt.Sprintf("node %d: PR list %v != OneStepPR list %v", u, ls, lt),
				}
			}
		}
	}
	return nil
}

// CheckRelationR verifies (s, t) ∈ R for s a OneStepPR state and t a NewPR
// state: (1) s.G′ = t.G′; (2) parity[u] even ⇒ list[u] ⊆ out-nbrs(u);
// (3) parity[u] odd ⇒ list[u] ⊆ in-nbrs(u).
func CheckRelationR(s *OneStepPR, t *NewPR) error {
	if !s.Orientation().Equal(t.Orientation()) {
		return &RelationViolationError{
			Relation: "R", Clause: "1",
			Detail: fmt.Sprintf("OneStepPR %v != NewPR %v", s.Orientation(), t.Orientation()),
		}
	}
	in := s.Init()
	for u := 0; u < s.Graph().NumNodes(); u++ {
		id := graph.NodeID(u)
		list := s.List(id)
		switch t.Parity(id) {
		case Even:
			if !subset(list, in.OutNbrs(id)) {
				return &RelationViolationError{
					Relation: "R", Clause: "2",
					Detail: fmt.Sprintf("node %d: parity even, list %v ⊄ out-nbrs %v",
						u, s.List(id), in.OutNbrs(id)),
				}
			}
		case Odd:
			if !subset(list, in.InNbrs(id)) {
				return &RelationViolationError{
					Relation: "R", Clause: "3",
					Detail: fmt.Sprintf("node %d: parity odd, list %v ⊄ in-nbrs %v",
						u, s.List(id), in.InNbrs(id)),
				}
			}
		}
	}
	return nil
}

// SimulationDriver advances PR, OneStepPR and NewPR in lockstep, checking
// both relations after every correspondence point.
type SimulationDriver struct {
	pr    *PR
	one   *OneStepPR
	newpr *NewPR
	// checkEvery controls whether relations are verified after each PR step
	// (true) or only on demand (false, for benchmarking the driver itself).
	checkEvery bool
}

// NewSimulationDriver creates the three automata from a shared Init. All
// start in related initial states (Lemmas 5.1(a) and 5.3(a)).
func NewSimulationDriver(in *Init) *SimulationDriver {
	return &SimulationDriver{
		pr:         NewPRAutomaton(in),
		one:        NewOneStepPR(in),
		newpr:      NewNewPR(in),
		checkEvery: true,
	}
}

// SetCheckEvery toggles per-step relation verification.
func (d *SimulationDriver) SetCheckEvery(v bool) { d.checkEvery = v }

// PR returns the driven PR automaton.
func (d *SimulationDriver) PR() *PR { return d.pr }

// OneStepPR returns the driven OneStepPR automaton.
func (d *SimulationDriver) OneStepPR() *OneStepPR { return d.one }

// NewPR returns the driven NewPR automaton.
func (d *SimulationDriver) NewPR() *NewPR { return d.newpr }

// Quiescent reports whether PR has no enabled action.
func (d *SimulationDriver) Quiescent() bool { return d.pr.Quiescent() }

// Step performs reverse(S) in PR and the corresponding step sequences in
// OneStepPR and NewPR, then (if enabled) checks both relations. The node
// order of the OneStepPR sequence follows the order of S, as in Lemma 5.1.
func (d *SimulationDriver) Step(s []graph.NodeID) error {
	act := automaton.NewReverseSet(s)
	if err := d.pr.Step(act); err != nil {
		return fmt.Errorf("PR step %s: %w", act, err)
	}
	for _, u := range act.S {
		// Lemma 5.3: if list[w] = nbrs(w) in OneStepPR, NewPR needs two
		// consecutive reverse(w) steps (the first is a dummy); otherwise one.
		needTwo := len(d.one.List(u)) == d.one.Graph().Degree(u)
		if err := d.one.Step(automaton.ReverseNode{U: u}); err != nil {
			return fmt.Errorf("OneStepPR step reverse(%d): %w", u, err)
		}
		if err := d.newpr.Step(automaton.ReverseNode{U: u}); err != nil {
			return fmt.Errorf("NewPR step reverse(%d): %w", u, err)
		}
		if needTwo {
			if err := d.newpr.Step(automaton.ReverseNode{U: u}); err != nil {
				return fmt.Errorf("NewPR second step reverse(%d): %w", u, err)
			}
		}
	}
	if d.checkEvery {
		return d.CheckRelations()
	}
	return nil
}

// Run drives the three automata under a random set schedule until PR is
// quiescent or has taken 100·n²+100 steps: each reverse(S) takes one enabled
// sink drawn from rng and adds each other enabled sink with probability ½.
// It returns the first step or relation error. Callers check Quiescent.
func (d *SimulationDriver) Run(rng *rand.Rand) error {
	n := d.pr.Graph().NumNodes()
	for step := 0; step < 100*n*n+100 && !d.Quiescent(); step++ {
		var sinks []graph.NodeID
		for _, act := range d.pr.Enabled() {
			sinks = append(sinks, act.Participants()...)
		}
		pick := []graph.NodeID{sinks[rng.Intn(len(sinks))]}
		for _, u := range sinks {
			if u != pick[0] && rng.Intn(2) == 0 {
				pick = append(pick, u)
			}
		}
		if err := d.Step(pick); err != nil {
			return err
		}
	}
	return nil
}

// CheckRelations verifies both R′ and R at the current correspondence point.
func (d *SimulationDriver) CheckRelations() error {
	if err := CheckRelationRPrime(d.pr, d.one); err != nil {
		return err
	}
	return CheckRelationR(d.one, d.newpr)
}
