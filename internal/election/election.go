// Package election implements leader election via link reversal in the
// style of Malpani–Welch–Vaidya, one of the three applications the paper's
// introduction motivates. The network keeps a DAG oriented toward the
// current leader; when nodes or links fail, each surviving component elects
// the lowest live node ID as its leader and repairs the orientation with
// partial-reversal steps from the *current* state — no global restart.
//
// Links and Gafni–Bertsekas height triples live in a core.HeightDAG, which
// derives every direction from the heights, so the graph is acyclic by
// construction throughout, links can fail or appear at any time, and the
// per-component repair is exactly the height-based Partial Reversal of
// internal/core with the component's leader as destination.
package election

import (
	"errors"
	"fmt"
	"slices"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// Errors returned by Service operations.
var (
	// ErrUnknownNode is returned for node IDs outside the network.
	ErrUnknownNode = errors.New("election: unknown node")
	// ErrNodeDown is returned when an operation targets a failed node.
	ErrNodeDown = errors.New("election: node is down")
	// ErrNodeUp is returned by Recover for a node that is not failed.
	ErrNodeUp = errors.New("election: node is not down")
	// ErrNoLiveNodes is returned when a component has no live members.
	ErrNoLiveNodes = errors.New("election: no live nodes")
)

// Service maintains per-component leaders over a mutable node/link set.
// It is not safe for concurrent use.
type Service struct {
	base    *graph.Graph // original topology: Recover restores these links
	alive   []bool
	dag     *core.HeightDAG
	leaders []graph.NodeID // leader of each node's component; -1 if unknown
}

// NewService builds a Service from a topology; all nodes start alive and
// the initial leader structure is computed by Stabilize.
func NewService(topo *workload.Topology) (*Service, error) {
	in, err := topo.Init()
	if err != nil {
		return nil, err
	}
	n := topo.Graph.NumNodes()
	s := &Service{
		base:    topo.Graph,
		alive:   slices.Repeat([]bool{true}, n),
		dag:     core.NewHeightDAG(in),
		leaders: make([]graph.NodeID, n),
	}
	if err := s.Stabilize(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Service) valid(u graph.NodeID) bool { return u >= 0 && int(u) < len(s.alive) }

// Alive reports whether u is currently up.
func (s *Service) Alive(u graph.NodeID) (bool, error) {
	if !s.valid(u) {
		return false, fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	return s.alive[u], nil
}

// Steps returns the total number of reversal steps performed so far.
func (s *Service) Steps() int { return s.dag.Steps() }

// Fail takes u down, removing its incident links. Leaders are recomputed on
// the next Stabilize.
func (s *Service) Fail(u graph.NodeID) error {
	if !s.valid(u) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	if !s.alive[u] {
		return fmt.Errorf("%w: %d", ErrNodeDown, u)
	}
	s.alive[u] = false
	// RemoveLink replaces u's row, so the row ranged over stays intact.
	for _, v := range s.dag.Neighbors(u) {
		s.dag.RemoveLink(u, v)
	}
	return nil
}

// Recover brings u back up, restoring its original links to live
// neighbours. The revived node keeps its old height, which is safe: any
// height assignment is acyclic.
func (s *Service) Recover(u graph.NodeID) error {
	if !s.valid(u) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	if s.alive[u] {
		return fmt.Errorf("%w: %d", ErrNodeUp, u)
	}
	s.alive[u] = true
	for _, v := range s.base.Neighbors(u) {
		if s.alive[v] {
			s.dag.AddLink(u, v)
		}
	}
	return nil
}

// Stabilize elects the lowest live ID of every component as its leader and
// runs partial reversal until every member has a directed path to it.
func (s *Service) Stabilize() error {
	for u := range s.leaders {
		s.leaders[u] = -1
	}
	for start := range s.leaders {
		if !s.alive[start] || s.leaders[start] >= 0 {
			continue
		}
		// start is the lowest live ID of a component not yet seen.
		comp := s.dag.Component(graph.NodeID(start))
		leader := comp[0]
		if _, err := s.dag.Stabilize(leader, comp); err != nil {
			return fmt.Errorf("election: component of %d: %w", leader, err)
		}
		for _, u := range comp {
			s.leaders[u] = leader
		}
	}
	return nil
}

// Leader returns the leader of u's component. The node must be alive and
// Stabilize must have run since the last topology change.
func (s *Service) Leader(u graph.NodeID) (graph.NodeID, error) {
	if !s.valid(u) {
		return -1, fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	if !s.alive[u] {
		return -1, fmt.Errorf("%w: %d", ErrNodeDown, u)
	}
	if s.leaders[u] < 0 {
		return -1, ErrNoLiveNodes
	}
	return s.leaders[u], nil
}

// PathToLeader returns a directed path from u to its component's leader,
// following the lowest-height next hop.
func (s *Service) PathToLeader(u graph.NodeID) ([]graph.NodeID, error) {
	leader, err := s.Leader(u)
	if err != nil {
		return nil, err
	}
	path, ok := s.dag.Path(u, leader)
	if !ok {
		return nil, fmt.Errorf("election: node %d is a sink; call Stabilize", path[len(path)-1])
	}
	return path, nil
}

// Acyclic verifies by DFS that the live directed graph has no cycle
// (always true: heights are a total order). Exposed as an executable
// invariant for the tests.
func (s *Service) Acyclic() bool { return s.dag.Acyclic() }
