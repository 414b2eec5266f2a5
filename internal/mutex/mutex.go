// Package mutex implements token-based distributed mutual exclusion on a
// link-reversal DAG, the third application motivating the paper (in the
// spirit of Raymond's algorithm and the mutual-exclusion chapter of
// Welch & Walter's survey).
//
// The token holder is the DAG's destination: every process always has a
// directed path to the token, which is where requests travel. Granting the
// token to the next requester re-orients the DAG with the requester as the
// new destination using height-based partial reversal on a core.HeightDAG;
// the acyclicity theorem is exactly what keeps request paths loop-free at
// every instant.
//
// Safety (at most one holder) holds by construction — the token is a single
// value. Liveness (every request eventually granted) follows from FIFO
// queueing plus termination of partial reversal. Both are asserted by the
// test suite.
package mutex

import (
	"errors"
	"fmt"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// Errors returned by Manager operations.
var (
	// ErrUnknownNode is returned for process IDs outside the system.
	ErrUnknownNode = errors.New("mutex: unknown process")
	// ErrAlreadyQueued is returned when a process requests while already
	// holding the token or waiting for it.
	ErrAlreadyQueued = errors.New("mutex: process already holds or awaits the token")
	// ErrNoRequests is returned by Grant when the queue is empty.
	ErrNoRequests = errors.New("mutex: no pending requests")
)

// GrantRecord describes one completed token handoff.
type GrantRecord struct {
	From      graph.NodeID
	To        graph.NodeID
	Hops      int // request-path length from requester to holder
	Reversals int // reversal steps needed to re-orient toward the grantee
}

// Manager coordinates the token over a fixed process graph. It is not safe
// for concurrent use.
type Manager struct {
	dag     *core.HeightDAG
	holder  graph.NodeID
	queue   []graph.NodeID
	queued  map[graph.NodeID]bool
	history []GrantRecord
}

// NewManager builds a Manager; the topology's destination is the initial
// token holder.
func NewManager(topo *workload.Topology) (*Manager, error) {
	in, err := topo.Init()
	if err != nil {
		return nil, err
	}
	m := &Manager{
		dag:    core.NewHeightDAG(in),
		holder: topo.Dest,
		queued: make(map[graph.NodeID]bool),
	}
	// Orient toward the initial holder.
	if _, err := m.stabilizeToward(m.holder); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Manager) valid(u graph.NodeID) bool { return u >= 0 && int(u) < m.dag.NumNodes() }

// Holder returns the current token holder.
func (m *Manager) Holder() graph.NodeID { return m.holder }

// QueueLen returns the number of pending requests.
func (m *Manager) QueueLen() int { return len(m.queue) }

// Steps returns the total reversal steps performed since construction.
func (m *Manager) Steps() int { return m.dag.Steps() }

// History returns a copy of all completed handoffs.
func (m *Manager) History() []GrantRecord {
	out := make([]GrantRecord, len(m.history))
	copy(out, m.history)
	return out
}

// stabilizeToward runs height-based partial reversal over every process
// until each has a path to dest; returns the number of reversal steps.
func (m *Manager) stabilizeToward(dest graph.NodeID) (int, error) {
	steps, err := m.dag.Stabilize(dest, nil)
	if err != nil {
		return steps, fmt.Errorf("mutex: %w", err)
	}
	return steps, nil
}

// Request enqueues u for the token. Requests are served FIFO.
func (m *Manager) Request(u graph.NodeID) error {
	if !m.valid(u) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	if u == m.holder || m.queued[u] {
		return fmt.Errorf("%w: %d", ErrAlreadyQueued, u)
	}
	m.queue = append(m.queue, u)
	m.queued[u] = true
	return nil
}

// Grant hands the token to the oldest pending requester: the request
// travels along the DAG to the holder (lowest-height next hop at each
// step), then the DAG re-orients toward the grantee. It returns the
// handoff record.
func (m *Manager) Grant() (GrantRecord, error) {
	if len(m.queue) == 0 {
		return GrantRecord{}, ErrNoRequests
	}
	to := m.queue[0]
	m.queue = m.queue[1:]
	delete(m.queued, to)
	path, ok := m.dag.Path(to, m.holder)
	if !ok {
		return GrantRecord{}, fmt.Errorf("mutex: process %d has no route to the holder", path[len(path)-1])
	}
	rev, err := m.stabilizeToward(to)
	if err != nil {
		return GrantRecord{}, err
	}
	rec := GrantRecord{From: m.holder, To: to, Hops: len(path) - 1, Reversals: rev}
	m.holder = to
	m.history = append(m.history, rec)
	return rec, nil
}

// DrainAll grants until the queue empties, returning the handoff records.
func (m *Manager) DrainAll() ([]GrantRecord, error) {
	var recs []GrantRecord
	for len(m.queue) > 0 {
		rec, err := m.Grant()
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// Oriented reports whether every process currently has a directed path to
// the token holder — the system invariant between grants. Heights strictly
// decrease along a directed path, so that holds exactly when every other
// process has a lower neighbour to forward to.
func (m *Manager) Oriented() bool {
	for u := range m.dag.NumNodes() {
		if id := graph.NodeID(u); id != m.holder {
			if _, ok := m.dag.NextHop(id); !ok {
				return false
			}
		}
	}
	return true
}

// Acyclic verifies by DFS that the directed graph has no cycle (always
// true: heights are a total order). Exposed for the tests.
func (m *Manager) Acyclic() bool { return m.dag.Acyclic() }
