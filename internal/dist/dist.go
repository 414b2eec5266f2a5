// Package dist executes the link-reversal protocols asynchronously with
// real concurrency instead of a simulated scheduler. It is the paper's core
// scenario — Radeva & Lynch's acyclicity results are claims about *every*
// asynchronous execution, and this package realizes such executions.
//
// Two entry points are provided:
//
//   - Run / RunWith execute one of the three protocol variants
//     (FullReversal, PartialReversal, StaticPartialReversal) on a fixed
//     topology until global quiescence, using reversal-notification
//     messages. Every step a node takes is a valid step of the
//     corresponding sequential automaton (see the safety argument below),
//     so the recorded step order replays verbatim on the internal/core
//     automata — the cross-check exploited by the test suite. A sharded
//     worker pool runs them: nodes are partitioned across Options.Shards
//     shard goroutines (default GOMAXPROCS) and cross-shard traffic
//     travels in batches. Shards ≥ n gives one node per shard, so every
//     node runs on its own goroutine with its own inbox: per-node
//     asynchrony. RunWith only lays out the run's node table, with each
//     shard's bit views word-aligned; each shard fills its own nodes'
//     entries (initial views, NewPR's parity sets) when its goroutine
//     starts, before its first step, and counts its own steps and
//     messages, which RunWith adds up once the shards have exited. A
//     message names the receiver's slot of the shared edge, the twin the
//     graph stores beside the sender's slot.
//
//   - DynamicNetwork runs the height-based (Gafni–Bertsekas pair) protocol
//     over a topology that changes at runtime: links are added and failed,
//     and nodes added, removed, crashed and recovered, while the protocol
//     keeps running. It runs on the same shard runtime (DynOptions.Shards),
//     and internal/faults adversaries can be aimed at the
//     height-announcement plane. Heights carry TORA-style reference
//     levels (generate / propagate / reflect), so a component cut off from
//     the destination detects the partition in O(component) steps;
//     AwaitQuiescence validates every suspicion against the authoritative
//     topology and reports a PartitionError naming the exact cut
//     component. Healing the cut erases the stranded heights (CLR-style),
//     so heights do not ratchet across cut/heal cycles.
//
// # Safety under asynchrony
//
// In Run, every edge direction is changed only by the endpoint the edge
// currently points toward (sinks reverse incoming edges), and the reversal
// is announced to the other endpoint with a message. A node's view of an
// incident edge can therefore err in only one direction: it may believe the
// edge is outgoing while a not-yet-delivered message says it is incoming.
// Believing "incoming" is always truthful. A node that sees every incident
// edge incoming really is a sink, so each step it takes satisfies the
// sequential automaton's precondition, and the real-time order of steps is
// a legal sequential execution. Quiescence is detected by counting
// in-flight tokens in batches, one rule for both planes: each shard starts
// with one token; each cross-shard batch carries one, added before the
// batch is sent while the sender still holds its own — a batch may leave
// mid-cascade or when the cascade ends, and takes its token either way;
// and a shard retires the token it holds once the batch's local cascade
// has run dry and its outboxes are flushed. The count reaches zero only
// when no message is pending anywhere, so every view is exact and "no
// node believes it is a sink" implies global quiescence. A
// DynamicNetwork control-plane message enters as a one-message batch whose
// token the control plane counts before injecting it;
// DynamicNetwork.injectLocked is the one function that does both, for
// every topology mutation and for AwaitQuiescence's erasures and pokes,
// all under the network's one lock.
//
// The transport owes these arguments two things only: every message is
// delivered, and each receiver gets its messages in the order they were
// put for it. Each shard is one goroutine with an inbox, an unbounded
// locked list of batches: a put appends and never blocks, and the shard
// takes every waiting batch at once and runs them in arrival order. A
// shard runs its local cascade one generation at a time, in FIFO order,
// and sends its cross-shard messages while the cascade still runs: every
// 256 local deliveries it flushes each outbox whose receiver has handled
// every earlier batch from it, and the rest when the cascade ends, so the
// shards of one repair work at once. One outbox leaves as one batch and
// batches keep put order, so both orders hold.
//
// # Safety and liveness under network faults
//
// With Options.Adversary set, a seeded fault injector (internal/faults)
// sits between senders and receivers and may drop, duplicate, or hold back
// any transmission. Both planes recover loss by one rule,
// faults.Injector.Send: the sender retransmits a dropped payload at once,
// until an attempt survives, and the injector's fair-loss bound
// (Adversary.RetryBudget) caps how many attempts it may drop. So every
// payload is delivered. Reversal announcements also carry
// per-directed-link sequence numbers, and the receiver applies only fresh
// ones, so a duplicate or held-back copy can never resurrect a view the
// receiver has since reversed: the one-sided-error argument survives
// duplication and reordering, and every announcement is applied exactly
// once. Receivers acknowledge every copy; acks are counted traffic that
// no state reads. Duplicate copies, acks and held-back messages travel in
// the same batches and run-queues as the payloads, so the batch tokens
// cover them and the count cannot reach zero while the adversary still
// holds traffic.
//
// In DynamicNetwork the same one-sided-error argument holds for heights:
// a node's stored copy of a neighbour's height is a lower bound within the
// neighbour's current height generation (heights only increase between
// control-plane resets, and link-up snapshots are exchanged by message),
// and an edge points toward the lexicographically smaller endpoint, so
// "all my neighbours are above me" in the view implies it in truth.
// Generations let heights legally shrink when a healed partition's
// inflated heights are erased: the control plane bumps the generation,
// corrects the views of every outside neighbour first, and per-receiver
// FIFO delivery guarantees no stale high view survives the reset. Height
// announcements are idempotent under the generation-aware merge, so a
// fault adversary's duplicates and delays are absorbed structurally, and
// loss is repaired by the same immediate retransmission as on the static
// plane. The planes differ only in how a copy that arrives twice is made
// harmless: a reversal notice must apply exactly once, which the static
// plane's sequence numbers ensure, while a height announcement may apply
// any number of times.
package dist

import (
	"errors"
	"fmt"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

// Algorithm selects the distributed protocol variant executed by Run.
type Algorithm int

const (
	// FullReversal is asynchronous Full Reversal (Gafni & Bertsekas): a
	// sink reverses all incident edges.
	FullReversal Algorithm = iota + 1
	// PartialReversal is asynchronous list-based Partial Reversal
	// (Algorithm 1 of the paper, restricted to single-node steps): a sink
	// reverses the edges to the neighbours that have not reversed toward it
	// since its last step.
	PartialReversal
	// StaticPartialReversal is the asynchronous form of the paper's static
	// reformulation NewPR (Algorithm 2): a sink reverses its initial
	// in-neighbours on even-parity steps and its initial out-neighbours on
	// odd-parity steps.
	StaticPartialReversal
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case FullReversal:
		return "dist-FR"
	case PartialReversal:
		return "dist-PR"
	case StaticPartialReversal:
		return "dist-NewPR"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Twin returns the sequential automaton whose executions this protocol's
// runs linearize to: FR, PR or NewPR. Trace replay checks a run against it.
func (a Algorithm) Twin() (core.Variant, error) {
	names := map[Algorithm]string{FullReversal: "FR", PartialReversal: "PR", StaticPartialReversal: "NewPR"}
	if v, ok := core.VariantNamed(names[a]); ok {
		return v, nil
	}
	return core.Variant{}, fmt.Errorf("%w: %d", ErrUnknownAlgorithm, int(a))
}

// Errors returned by the dist engines.
var (
	// ErrUnknownAlgorithm is returned by Run for an unrecognized Algorithm.
	ErrUnknownAlgorithm = errors.New("dist: unknown algorithm")
	// ErrPartitioned is the sentinel wrapped by every *PartitionError that
	// DynamicNetwork.AwaitQuiescence returns when live nodes have no path
	// to the destination. Match it with errors.Is; unwrap the
	// *PartitionError itself (errors.As) for the exact cut component.
	ErrPartitioned = errors.New("dist: network partitioned from the destination")
	// ErrStopped is returned by DynamicNetwork operations after Stop.
	ErrStopped = errors.New("dist: network stopped")
	// ErrCrashed is returned by Crash for an already-crashed node.
	ErrCrashed = errors.New("dist: node already crashed")
	// ErrNotCrashed is returned by Recover for a node that is not crashed.
	ErrNotCrashed = errors.New("dist: node is not crashed")
	// ErrUnknownNode is returned for node IDs outside the network.
	ErrUnknownNode = errors.New("dist: unknown node")
	// ErrSelfLink is returned for links from a node to itself.
	ErrSelfLink = errors.New("dist: self links are not allowed")
	// ErrDestination is returned by RemoveNode for the destination, which
	// cannot be removed.
	ErrDestination = errors.New("dist: the destination cannot be removed")
	// ErrLinkExists is returned by AddLink for a link that is present.
	ErrLinkExists = errors.New("dist: link already exists")
	// ErrNoSuchLink is returned by FailLink for a link that is absent.
	ErrNoSuchLink = errors.New("dist: no such link")
	// ErrStepLimit is returned by Run if the protocol somehow exceeds its
	// step budget without quiescing; it indicates an engine bug, not a
	// property of the algorithms.
	ErrStepLimit = errors.New("dist: step limit exceeded before quiescence")
)

// PartitionError is the exact partition report of
// DynamicNetwork.AwaitQuiescence: the network quiesced, but the named live
// nodes have no path to the destination. It wraps ErrPartitioned, so
// errors.Is checks match it; use errors.As to recover the cut component.
type PartitionError struct {
	// Cut lists every live node without a path to the destination,
	// ascending.
	Cut []graph.NodeID
}

// Error implements error.
func (e *PartitionError) Error() string {
	return fmt.Sprintf("dist: network partitioned from the destination (%d nodes cut off)", len(e.Cut))
}

// Unwrap makes errors.Is(err, ErrPartitioned) match.
func (e *PartitionError) Unwrap() error { return ErrPartitioned }

// Stats aggregates the work and communication cost of a run.
type Stats struct {
	// Messages is the number of protocol messages sent (one per reversed
	// edge in Run; one height announcement per live neighbour per step in
	// DynamicNetwork).
	Messages int
	// Batches is the number of cross-shard batches handed to the
	// transport. Intra-shard messages bypass the transport entirely, so
	// Batches ≤ Messages on a reliable network, reaching 0 when all
	// traffic stays inside one shard (for example with Shards: 1).
	Batches int
	// Steps is the number of node steps taken (including NewPR's dummy
	// parity-fixing steps).
	Steps int
	// TotalReversals is the number of individual edge reversals.
	TotalReversals int
	// Drops is the number of transmissions the fault adversary lost
	// (payload attempts and acknowledgements); 0 on a reliable network.
	Drops int
	// Dups is the number of extra copies the fault adversary delivered.
	Dups int
	// Held is the number of transmissions the fault adversary held back
	// behind later traffic (delay/reorder).
	Held int
	// Retransmits is the number of payload retransmissions: one per
	// dropped payload attempt, each sent at once by its sender.
	Retransmits int
	// Acks is the number of acknowledgements receivers sent, one per
	// delivered payload copy; 0 unless an adversary is armed. They are
	// counted traffic only: no state reads an ack.
	Acks int
	// Remote is the number of transmissions that crossed a shard boundary
	// — the partition-quality metric a topology-aware Options.Partition is
	// meant to shrink. 0 with one shard, which has no shard boundary.
	Remote int
	// Coalesced is always 0: the shard outboxes no longer fold duplicate
	// transmissions.
	//
	// Deprecated: kept only because bench/ reads it; delete it with the
	// next change to bench/.
	Coalesced int
}

// Result is the outcome of a quiesced Run.
type Result struct {
	// Final is the orientation after quiescence.
	Final *graph.Orientation
	// Stats aggregates message and work counts.
	Stats Stats
	// Trace is the global linearization of node steps, in the real-time
	// order the steps were taken. Replaying it on the matching sequential
	// automaton (internal/core) reproduces Final exactly. Trace is nil when
	// the run was executed with Options.RecordTrace == TraceOff.
	Trace []graph.NodeID
	// Shards is the per-shard telemetry snapshot captured when
	// Options.Observer was armed (nil otherwise): one entry per shard of
	// the run (Options.Shards clamped to the node count) plus a trailing
	// control-plane entry (Shard == -1). See obs.ShardStats for the
	// counter semantics.
	Shards []obs.ShardStats
}
