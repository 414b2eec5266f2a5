// Package routing is the application layer the paper's introduction
// motivates: maintaining loop-free routes to a destination in a network
// whose topology changes, in the style of TORA and the original
// Gafni–Bertsekas protocol.
//
// The router keeps its links and heights in a core.HeightDAG: a height
// triple per node (the GBPair formulation of Partial Reversal) from which
// every link's direction is derived, higher endpoint → lower endpoint.
// Because heights form a total order, the routing graph is acyclic *by
// construction* at all times, links can be added with a well-defined
// direction, and removing links preserves acyclicity trivially. When a node
// loses its last outgoing link it becomes a sink and the partial-reversal
// rule raises its height.
//
// Nodes whose component no longer contains the destination can never become
// destination-oriented; the router detects them by undirected reachability
// and excludes them from scheduling (TORA's partition detection plays this
// role in the real protocol).
package routing

import (
	"errors"
	"fmt"
	"slices"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// Errors returned by Router operations.
var (
	// ErrUnknownNode is returned for node IDs outside the network.
	ErrUnknownNode = errors.New("routing: unknown node")
	// ErrLinkExists is returned by AddLink for a present link.
	ErrLinkExists = errors.New("routing: link already exists")
	// ErrNoSuchLink is returned by RemoveLink for an absent link.
	ErrNoSuchLink = errors.New("routing: no such link")
	// ErrSelfLink is returned for links from a node to itself.
	ErrSelfLink = errors.New("routing: self links are not allowed")
	// ErrPartitioned is returned by Route when the source cannot reach the
	// destination because the network is partitioned.
	ErrPartitioned = errors.New("routing: source is partitioned from the destination")
	// ErrNotStabilized is returned by Route when invoked while some node in
	// the destination's component is still a sink (call Stabilize first).
	ErrNotStabilized = errors.New("routing: network not stabilized")
)

// Router maintains loop-free routes to a single destination over a mutable
// topology. It is not safe for concurrent use.
type Router struct {
	dag *core.HeightDAG
	// events counts topology mutations.
	events int
}

// NewRouter builds a router from a workload topology, assigning initial
// heights from the initial orientation's embedding so that the derived link
// directions equal the topology's initial orientation.
func NewRouter(topo *workload.Topology) (*Router, error) {
	in, err := topo.Init()
	if err != nil {
		return nil, err
	}
	return &Router{dag: core.NewHeightDAG(in)}, nil
}

// NumNodes returns the number of nodes.
func (r *Router) NumNodes() int { return r.dag.NumNodes() }

// Destination returns the destination node.
func (r *Router) Destination() graph.NodeID { return r.dag.Destination() }

// Reversals returns the total number of height updates performed.
func (r *Router) Reversals() int { return r.dag.Steps() }

// Events returns the number of topology mutations applied.
func (r *Router) Events() int { return r.events }

// Height returns the current height of u.
func (r *Router) Height(u graph.NodeID) (core.Height, error) {
	if !r.valid(u) {
		return core.Height{}, fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	return r.dag.Height(u), nil
}

func (r *Router) valid(u graph.NodeID) bool { return u >= 0 && int(u) < r.dag.NumNodes() }

// Neighbors returns the current neighbours of u in ascending order.
func (r *Router) Neighbors(u graph.NodeID) []graph.NodeID {
	if !r.valid(u) {
		return nil
	}
	return slices.Clone(r.dag.Neighbors(u))
}

// NextHops returns u's current outgoing neighbours (candidate next hops),
// in ascending order.
func (r *Router) NextHops(u graph.NodeID) []graph.NodeID {
	if !r.valid(u) {
		return nil
	}
	var out []graph.NodeID
	for _, v := range r.dag.Neighbors(u) {
		if r.dag.Height(v).Less(r.dag.Height(u)) {
			out = append(out, v)
		}
	}
	return out
}

// HasLink reports whether the link {u,v} is currently present.
func (r *Router) HasLink(u, v graph.NodeID) bool {
	return r.valid(u) && r.valid(v) && r.dag.HasLink(u, v)
}

// AddLink inserts the link {u,v}. Its direction is derived from the current
// heights, so acyclicity is preserved unconditionally.
func (r *Router) AddLink(u, v graph.NodeID) error {
	if !r.valid(u) || !r.valid(v) {
		return fmt.Errorf("%w: {%d,%d}", ErrUnknownNode, u, v)
	}
	if u == v {
		return fmt.Errorf("%w: %d", ErrSelfLink, u)
	}
	if !r.dag.AddLink(u, v) {
		return fmt.Errorf("%w: {%d,%d}", ErrLinkExists, u, v)
	}
	r.events++
	return nil
}

// RemoveLink deletes the link {u,v}.
func (r *Router) RemoveLink(u, v graph.NodeID) error {
	if !r.valid(u) || !r.valid(v) {
		return fmt.Errorf("%w: {%d,%d}", ErrUnknownNode, u, v)
	}
	if !r.dag.RemoveLink(u, v) {
		return fmt.Errorf("%w: {%d,%d}", ErrNoSuchLink, u, v)
	}
	r.events++
	return nil
}

// Stabilize runs partial-reversal steps until no node in the destination's
// component is a sink. Nodes outside that component are partitioned and
// skipped. It returns the number of steps performed.
func (r *Router) Stabilize() (int, error) {
	steps, err := r.dag.Stabilize()
	if err != nil {
		return steps, fmt.Errorf("routing: %w", err)
	}
	return steps, nil
}

// Partitioned reports whether u is outside the destination's component.
// The component is kept until the next link change, so a call between
// changes is a binary search.
func (r *Router) Partitioned(u graph.NodeID) (bool, error) {
	if !r.valid(u) {
		return false, fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	_, in := slices.BinarySearch(r.dag.Component(), u)
	return !in, nil
}

// Route returns a loop-free path from src to the destination following
// current link directions, always forwarding to the lowest-height next hop.
// The network must be stabilized first.
func (r *Router) Route(src graph.NodeID) ([]graph.NodeID, error) {
	part, err := r.Partitioned(src)
	if err != nil {
		return nil, err
	}
	if part {
		return nil, fmt.Errorf("%w: node %d", ErrPartitioned, src)
	}
	path, ok := r.dag.Path(src)
	if !ok {
		return nil, fmt.Errorf("%w: node %d is a sink", ErrNotStabilized, path[len(path)-1])
	}
	return path, nil
}

// Acyclic reports whether the current directed routing graph is acyclic.
// Heights are a total order, so this is true by construction; the method
// exists as an executable invariant for the test suite.
func (r *Router) Acyclic() bool { return r.dag.Acyclic() }
