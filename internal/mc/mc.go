// Package mc is an explicit-state model checker for the link-reversal
// automata: it enumerates, by breadth-first search, *every* reachable state
// of an automaton on a (small) instance and evaluates invariants on each.
// Where the randomized engine of internal/sched samples executions, the
// checker covers the whole reachable space — the exact set quantified over
// by the paper's "in any reachable state" theorems.
//
// Single-node reverse(u) actions suffice for state coverage: sinks are
// pairwise non-adjacent, so any reverse(S) step of the PR automaton
// decomposes into |S| singleton steps through intermediate states, and the
// set-step successor is reachable via singletons.
//
// # Partial-order reduction
//
// The same non-adjacency gives the checker its partial-order structure:
// two enabled reverse actions always commute *exactly* (they touch
// disjoint edges and disjoint per-node state, so both interleavings land
// on the same state — the diamond property), and an enabled sink stays
// enabled until it steps, because none of its neighbours can reverse a
// shared edge while that edge still points at the sink. Options.Reduction
// exploits this two ways:
//
//   - ReduceSleep prunes commuted re-explorations with sleep sets
//     (Godefroid): after reverse(u) has been explored from a state, the
//     sibling branches carry u in their sleep set and never re-explore it,
//     so each diamond is traversed along one canonical path. Sleep sets
//     prune transitions only — every reachable state is still discovered
//     and checked, so the full invariant census is preserved (the
//     equivalence the test suite pins against ReduceNone).
//
//   - ReduceAmple explores a singleton persistent set — the lowest-ID
//     enabled action — at every state. {u} is persistent precisely because
//     of the stays-enabled property above: no action dependent on
//     reverse(u) can fire before u itself steps. Persistent-set search
//     preserves every quiescent (deadlock) state, and these automata are
//     strongly confluent, so the canonical execution it follows reaches
//     the unique terminal state while visiting O(total work) states
//     instead of the full interleaving lattice — the mode that pushes
//     exhaustive termination checking to instances far beyond ReduceNone's
//     reach under the same MaxStates budget. Invariants are checked on the
//     canonical representatives only, not on every reachable state.
package mc

import (
	"errors"
	"fmt"
	"sort"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/graph"
)

// Errors returned by Explore.
var (
	// ErrStateLimit is returned when the search frontier exceeds
	// Options.MaxStates before exhausting the space.
	ErrStateLimit = errors.New("mc: state limit exceeded")
	// ErrNotCheckable is returned for automata that do not implement both
	// core.StateKeyer and automaton.Cloner.
	ErrNotCheckable = errors.New("mc: automaton does not support enumeration")
)

// checkable is the contract Explore needs from an automaton.
type checkable interface {
	automaton.Automaton
	automaton.Cloner
	core.StateKeyer
}

// Reduction selects the partial-order reduction applied by Explore. The
// zero value is ReduceNone, the exact pre-reduction behaviour.
type Reduction int

const (
	// ReduceNone explores every (state, action) pair: the plain BFS.
	ReduceNone Reduction = iota
	// ReduceSleep prunes commuted transition re-explorations with sleep
	// sets. Every reachable state is still discovered and checked —
	// Result.States and Result.Quiescent are identical to ReduceNone — but
	// each commuting diamond is expanded along one canonical path, so
	// Transitions (and with it clone/step/key work) drops sharply.
	ReduceSleep
	// ReduceAmple explores only the lowest-ID enabled action at each state
	// (a singleton persistent set). It preserves every quiescent state and
	// the terminal orientation, visiting O(execution length) states, and is
	// the mode for termination/stuck-state checking on instances whose full
	// interleaving lattice exceeds MaxStates. States skipped by the
	// reduction are not invariant-checked.
	ReduceAmple
)

// String implements fmt.Stringer.
func (r Reduction) String() string {
	switch r {
	case ReduceNone:
		return "none"
	case ReduceSleep:
		return "sleep"
	case ReduceAmple:
		return "ample"
	default:
		return fmt.Sprintf("Reduction(%d)", int(r))
	}
}

// Options configures the search.
type Options struct {
	// MaxStates bounds the explored set; 0 means 1 << 20.
	MaxStates int
	// Invariants are evaluated on every discovered state.
	Invariants []automaton.Invariant
	// Reduction selects the partial-order reduction; the zero value
	// (ReduceNone) explores the full interleaving lattice.
	Reduction Reduction
}

// Violation reports an invariant failure on a specific reachable state.
type Violation struct {
	StateKey string
	Depth    int
	Err      error
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("mc: depth %d state %q: %v", v.Depth, v.StateKey, v.Err)
}

// Result summarizes an exhaustive exploration.
type Result struct {
	// States is the number of distinct reachable states discovered
	// (including the initial state). Identical across ReduceNone and
	// ReduceSleep; ReduceAmple visits only the canonical representatives.
	States int
	// Transitions is the number of (state, action) pairs explored.
	Transitions int
	// MaxDepth is the depth of the deepest state at first discovery. Under
	// ReduceNone this is the BFS eccentricity (longest shortest path from
	// the initial state); the reduced modes may first reach a state along a
	// longer canonical path.
	MaxDepth int
	// Quiescent is the number of discovered states with no enabled action.
	// All three reduction modes preserve it: sleep sets visit every
	// reachable state, and persistent-set search reaches every deadlock.
	Quiescent int
}

// entry is one frontier element: a state to expand, its discovery depth,
// and (under ReduceSleep) the sleep set it was reached with — the actions
// whose exploration from this state is already covered by a commuted path.
type entry struct {
	st    checkable
	depth int
	sleep []graph.NodeID
}

// frontier is the BFS queue, windowed by a head index: popping with
// queue = queue[1:] would retain the whole backing array (every consumed
// entry, and the cloned automaton it references, pinned until the search
// ends) and permanently consume capacity. Popped slots are zeroed so
// drained states are collectable, and the live window slides to the front
// once the consumed prefix reaches half the length — amortized O(1) per
// state.
type frontier struct {
	buf  []entry
	head int
}

func (f *frontier) push(e entry) { f.buf = append(f.buf, e) }

func (f *frontier) empty() bool { return f.head == len(f.buf) }

func (f *frontier) pop() entry {
	e := f.buf[f.head]
	f.buf[f.head] = entry{}
	f.head++
	if f.head > 32 && f.head*2 >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return e
}

// inSleep reports whether u is in the ascending sleep set.
func inSleep(sleep []graph.NodeID, u graph.NodeID) bool {
	i := sort.Search(len(sleep), func(i int) bool { return sleep[i] >= u })
	return i < len(sleep) && sleep[i] == u
}

// succSleep builds the successor's sleep set after taking reverse(u):
// the current sleep set plus the actions already explored from this state,
// minus anything dependent on reverse(u) (u itself, or a neighbour of u —
// co-enabled sinks are never adjacent, so the adjacency filter is a
// safety net rather than the common case). Both inputs are ascending and
// disjoint from {u}; the merge keeps the result ascending.
func succSleep(g *graph.Graph, sleep, taken []graph.NodeID, u graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(sleep)+len(taken))
	i, j := 0, 0
	for i < len(sleep) || j < len(taken) {
		var w graph.NodeID
		switch {
		case j == len(taken) || (i < len(sleep) && sleep[i] < taken[j]):
			w = sleep[i]
			i++
		default:
			w = taken[j]
			j++
		}
		if w == u || g.HasEdge(w, u) {
			continue
		}
		out = append(out, w)
	}
	return out
}

// Explore enumerates all states reachable from a's current state and
// checks every invariant on each. It returns a *Violation as the error if
// an invariant fails. Options.Reduction selects the partial-order
// reduction; see the package documentation for the guarantees of each
// mode.
func Explore(a automaton.Automaton, opts Options) (*Result, error) {
	start, ok := a.(checkable)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotCheckable, a.Name())
	}
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 1 << 20
	}
	g := start.Graph()
	res := &Result{}
	seen := make(map[string]struct{})
	var fr frontier
	fr.push(entry{st: start, depth: 0})
	seen[start.StateKey()] = struct{}{}
	res.States = 1
	for !fr.empty() {
		cur := fr.pop()
		if cur.depth > res.MaxDepth {
			res.MaxDepth = cur.depth
		}
		if err := automaton.CheckAll(cur.st, opts.Invariants); err != nil {
			return res, &Violation{StateKey: cur.st.StateKey(), Depth: cur.depth, Err: err}
		}
		enabled := cur.st.Enabled()
		if len(enabled) == 0 {
			res.Quiescent++
			continue
		}
		// The reductions rely on a fixed priority order: expand actions by
		// ascending node ID so the canonical interleaving is well defined.
		nodes := make([]graph.NodeID, len(enabled))
		for i, act := range enabled {
			nodes[i] = act.Participants()[0]
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		var taken []graph.NodeID
		for _, u := range nodes {
			if opts.Reduction == ReduceAmple && len(taken) == 1 {
				break
			}
			if opts.Reduction == ReduceSleep && inSleep(cur.sleep, u) {
				continue
			}
			// Clone, then apply the single-node action.
			next, ok := cur.st.CloneAutomaton().(checkable)
			if !ok {
				return res, fmt.Errorf("%w: clone of %s", ErrNotCheckable, cur.st.Name())
			}
			if err := next.Step(automaton.ReverseNode{U: u}); err != nil {
				return res, fmt.Errorf("mc: step reverse(%d) at depth %d: %w", u, cur.depth, err)
			}
			res.Transitions++
			var sleep []graph.NodeID
			if opts.Reduction == ReduceSleep {
				sleep = succSleep(g, cur.sleep, taken, u)
			}
			taken = append(taken, u)
			key := next.StateKey()
			if _, dup := seen[key]; dup {
				continue
			}
			if res.States >= maxStates {
				return res, fmt.Errorf("%w: %d states", ErrStateLimit, maxStates)
			}
			seen[key] = struct{}{}
			res.States++
			fr.push(entry{st: next, depth: cur.depth + 1, sleep: sleep})
		}
	}
	return res, nil
}
