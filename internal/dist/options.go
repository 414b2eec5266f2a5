package dist

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"linkreversal/internal/faults"
	"linkreversal/internal/obs"
)

// Engine names an execution engine. The sharded runtime is the only one;
// per-node asynchrony comes from Options.Shards ≥ n (or DynOptions.Shards
// = n), which gives every node its own shard goroutine and mailbox.
//
// Deprecated: Options.Engine and DynOptions.Engine accept only 0 and
// Sharded, and both mean the sharded runtime.
type Engine int

// Sharded partitions the nodes across a set of shard goroutines (default
// GOMAXPROCS). Each shard owns its nodes' state, delivers intra-shard
// messages through a local run-queue without touching a channel, and
// accumulates cross-shard messages in per-destination outboxes that are
// flushed as batches. Its value is 2 because 1 named an engine that no
// longer exists.
//
// Deprecated: Sharded is the only engine; leave Options.Engine zero.
const Sharded Engine = 2

// validEngine reports whether e is accepted by the option validators: 0
// and Sharded both select the sharded runtime.
func validEngine(e Engine) error {
	if e != 0 && e != Sharded {
		return fmt.Errorf("%w: engine %d", ErrBadOption, int(e))
	}
	return nil
}

// Partition selects how nodes are assigned to shards. All schemes are
// deterministic and assign every node to exactly one shard.
type Partition int

const (
	// PartitionBlock assigns contiguous ID ranges of ⌈n/shards⌉ nodes to
	// each shard. It is the default: the workload generators hand adjacent
	// IDs to nearby nodes (chains, grids, trees), so range partitioning
	// keeps most reversal traffic intra-shard, where it is delivered
	// through the local run-queue without channels.
	PartitionBlock Partition = iota + 1
	// PartitionHash assigns node u to shard u mod shards. It spreads any
	// ID layout evenly across shards at the cost of locality; use it when
	// load balance matters more than cross-shard traffic.
	PartitionHash
	// PartitionLocality grows each shard as a breadth-first region of the
	// topology (deterministic BFS greedy growth, quota ⌈n/shards⌉ like
	// block), so neighbourhoods stay shard-local even when node IDs carry
	// no topological meaning — the case where block partitioning cuts
	// nearly every edge. Falls back to PartitionBlock when no graph is
	// available to grow from. Stats.Remote reports the cross-shard traffic
	// each scheme actually produced.
	PartitionLocality
)

// String implements fmt.Stringer.
func (p Partition) String() string {
	switch p {
	case PartitionBlock:
		return "block"
	case PartitionHash:
		return "hash"
	case PartitionLocality:
		return "locality"
	default:
		return fmt.Sprintf("Partition(%d)", int(p))
	}
}

// Coalescing selects whether shard outboxes fold byte-identical
// same-link transmissions pending in one outbox flush window into a single
// shipped message.
type Coalescing int

const (
	// CoalesceOn (the default) ships one message per distinct transmission
	// per flush window, carrying a copy count the receiving shard expands
	// before delivery — so the fault adversary's duplicate copies cost one
	// transport slot instead of many, while the seq/ack ledger (every
	// dedup, re-ack and retransmission decision) stays byte-identical to
	// unconsolidated shipping. On a reliable network repeats cannot occur
	// within a window, so coalescing is armed only under an adversary and
	// the fault-free hot path is untouched.
	CoalesceOn Coalescing = iota + 1
	// CoalesceOff ships every transmission individually. The final
	// orientation, trace and fault ledger are identical to CoalesceOn (the
	// confluence the test suite pins); only transport volume differs.
	CoalesceOff
)

// String implements fmt.Stringer.
func (c Coalescing) String() string {
	switch c {
	case CoalesceOn:
		return "coalesce-on"
	case CoalesceOff:
		return "coalesce-off"
	default:
		return fmt.Sprintf("Coalescing(%d)", int(c))
	}
}

// Trace selects whether RunWith records the global step linearization.
type Trace int

const (
	// TraceRecorded (the default) appends every step to a shared,
	// mutex-guarded trace before any of the step's messages moves, so
	// Result.Trace is a legal sequential execution that replays verbatim on
	// the internal/core automata — the cross-check used by the verification
	// suites.
	TraceRecorded Trace = iota + 1
	// TraceOff disables trace recording: steps touch only atomic counters,
	// removing the last lock from the hot path, and no O(steps) trace slice
	// is retained — which is what makes million-node runs fit in memory.
	// Result.Trace is nil; the final orientation and Stats are unaffected
	// (link reversal is confluent, so they are functions of the input
	// alone). What is lost is replayability: without the trace there is
	// nothing to feed the sequential cross-check.
	TraceOff
)

// String implements fmt.Stringer.
func (t Trace) String() string {
	switch t {
	case TraceRecorded:
		return "trace-recorded"
	case TraceOff:
		return "trace-off"
	default:
		return fmt.Sprintf("Trace(%d)", int(t))
	}
}

// Profile selects whether RunWith maintains per-node work counters.
type Profile int

const (
	// ProfileOff (the default) keeps the hot path free of per-node
	// accounting; Result.NodeSteps and Result.NodeReversals are nil.
	ProfileOff Profile = iota + 1
	// ProfileOn accumulates per-node step and reversal counts during the
	// run (each node's slot is written only by its owning executor, so the
	// counters cost two plain writes per step, no atomics). It is the
	// fitness hook of the adversarial search harness (internal/hunt): work
	// skew and per-node bound oracles read these directly instead of
	// replaying the trace.
	ProfileOn
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case ProfileOff:
		return "profile-off"
	case ProfileOn:
		return "profile-on"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// ErrBadOption is returned by RunWith for out-of-range Options values.
var ErrBadOption = errors.New("dist: invalid option")

// Defaults applied by Options.withDefaults for zero-valued fields, and the
// fixed sizes that are not options.
const (
	// defaultMailboxCap is the default buffer size of a static shard's
	// mailbox ingress channel and the fixed size of a dynamic shard's.
	// Senders block only while the pump goroutine is momentarily
	// descheduled; the pump itself never blocks on ingress, so there is no
	// deadlock cycle regardless of traffic pattern.
	defaultMailboxCap = 64
	// stepLimitSlack is the additive slack of RunWith's runaway-step
	// budget 200·n² + slack. Exceeding the budget aborts the run with
	// ErrStepLimit; it indicates an engine bug, not a property of the
	// algorithms.
	stepLimitSlack = 200
)

// Options tunes RunWith. The zero value runs GOMAXPROCS shards with block
// partitioning, a recorded trace and a reliable network, matching the
// behaviour of Run.
type Options struct {
	// Engine must be 0 or Sharded; both select the sharded runtime.
	//
	// Deprecated: the sharded runtime is the only engine. Leave Engine zero.
	Engine Engine
	// Shards is the number of shard goroutines, clamped to the node count;
	// 0 means GOMAXPROCS. Shards ≥ n gives one node per shard: every node
	// runs on its own goroutine with its own mailbox, the finest-grained
	// asynchrony the runtime offers. Each shard keeps one outbox slot per
	// shard, so that setting costs n² pointers (8 MB at 1k nodes).
	Shards int
	// Partition selects the node-to-shard assignment; 0 means
	// PartitionBlock.
	Partition Partition
	// Coalesce selects whether the shard outboxes fold byte-identical
	// transmissions of one flush window into a single shipped message;
	// 0 means CoalesceOn. Only observable through Stats.Coalesced and
	// transport volume — orientations, traces and the fault ledger are
	// identical either way.
	Coalesce Coalescing
	// MailboxCap is the buffer size of each shard's mailbox ingress
	// channel; 0 means 64.
	MailboxCap int
	// RecordTrace selects whether the run records the global step
	// linearization; 0 means TraceRecorded. Set TraceOff for
	// production-scale runs: it drops the only lock on the hot path and the
	// O(steps) trace memory, at the price of Result.Trace (and with it the
	// sequential replay cross-check).
	RecordTrace Trace
	// Profile selects whether the run maintains per-node step and reversal
	// counters (Result.NodeSteps / Result.NodeReversals); 0 means
	// ProfileOff. Unlike the trace it stays O(n) regardless of run length,
	// so worst-case-seeking searches can score long executions without
	// retaining them.
	Profile Profile
	// Adversary injects seeded network faults (loss, duplication, delay,
	// reorder) between senders and mailboxes; nil means a reliable network
	// and the exact pre-fault hot path. A non-nil adversary also arms the
	// sequence-numbered ack/retransmit protocol that restores liveness
	// under loss; see internal/faults and the package documentation.
	Adversary *faults.Adversary
	// Observer, when non-nil, arms the engine-deep observability layer:
	// per-shard telemetry counters (Result.Shards) and the protocol flight
	// recorder (see internal/obs). RunWith calls Observer.Attach with the
	// effective shard count, resetting any previous recording. nil — the
	// default — keeps the shards' sinks nil, so every hook collapses to a
	// branch and the allocation-free hot path is preserved exactly.
	Observer *obs.Observer
}

// DynOptions tunes a DynamicNetwork. The zero value runs GOMAXPROCS shards
// with block partitioning on a reliable network, matching the behaviour of
// NewDynamicNetwork.
type DynOptions struct {
	// Engine must be 0 or Sharded; both select the sharded runtime.
	//
	// Deprecated: the sharded runtime is the only engine. Leave Engine zero.
	Engine Engine
	// Shards is the number of shard goroutines; 0 means GOMAXPROCS. Unlike
	// the static engine it is not clamped to the node count, because the
	// network can grow via AddNode. Shards = n gives one node per shard:
	// every initial node runs on its own goroutine with its own mailbox.
	Shards int
	// Partition selects the node-to-shard assignment; 0 means
	// PartitionBlock. PartitionLocality grows its regions over the
	// construction-time topology only — later link churn does not
	// re-partition. Nodes added at runtime overflow any scheme's
	// construction-time assignment and clamp onto the last shard.
	Partition Partition
	// Adversary injects seeded faults into the height-announcement plane
	// (the only message kind whose loss, duplication or delay a real
	// network could inflict without the control plane noticing); nil means
	// a reliable network. Announcements are idempotent under the
	// generation-aware view merge, so duplication and delay are absorbed
	// structurally, and loss is repaired by sender-side retransmission
	// under the injector's fair-loss bound.
	Adversary *faults.Adversary
	// PublishEvery, when positive, starts a cadence publisher that
	// refreshes the epoch read snapshot (DynamicNetwork.ReadSnapshot)
	// whenever the network is momentarily quiescent at a tick. Zero means
	// snapshots are published only at construction, at every quiescent
	// AwaitQuiescence return, and on explicit PublishSnapshot calls. A
	// long-running serving deployment under continuous churn wants a
	// cadence in the tens of milliseconds; batch runs want zero.
	PublishEvery time.Duration
	// Observer, when non-nil, arms the engine-deep observability layer for
	// the dynamic plane: per-shard telemetry, the protocol flight recorder,
	// and a control-plane track recording epoch publications. The network
	// calls Observer.Attach at construction and triggers Observer.OnDump
	// when AwaitQuiescence reports a partition. nil — the default — keeps
	// every hook a dead branch.
	Observer *obs.Observer
}

// withDefaults validates o and fills in the defaults for zero fields.
func (o DynOptions) withDefaults() (DynOptions, error) {
	if err := validEngine(o.Engine); err != nil {
		return o, err
	}
	switch o.Partition {
	case 0:
		o.Partition = PartitionBlock
	case PartitionBlock, PartitionHash, PartitionLocality:
	default:
		return o, fmt.Errorf("%w: partition %d", ErrBadOption, int(o.Partition))
	}
	if o.Shards < 0 {
		return o, fmt.Errorf("%w: %d shards", ErrBadOption, o.Shards)
	}
	if o.Shards == 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.PublishEvery < 0 {
		return o, fmt.Errorf("%w: publish cadence %v", ErrBadOption, o.PublishEvery)
	}
	if o.Adversary != nil {
		if err := o.Adversary.Validate(); err != nil {
			return o, fmt.Errorf("%w: %v", ErrBadOption, err)
		}
	}
	return o, nil
}

// withDefaults validates o and fills in the defaults for zero fields.
func (o Options) withDefaults() (Options, error) {
	if err := validEngine(o.Engine); err != nil {
		return o, err
	}
	switch o.Partition {
	case 0:
		o.Partition = PartitionBlock
	case PartitionBlock, PartitionHash, PartitionLocality:
	default:
		return o, fmt.Errorf("%w: partition %d", ErrBadOption, int(o.Partition))
	}
	switch o.Coalesce {
	case 0:
		o.Coalesce = CoalesceOn
	case CoalesceOn, CoalesceOff:
	default:
		return o, fmt.Errorf("%w: coalescing mode %d", ErrBadOption, int(o.Coalesce))
	}
	if o.Shards < 0 {
		return o, fmt.Errorf("%w: %d shards", ErrBadOption, o.Shards)
	}
	if o.Shards == 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	switch o.RecordTrace {
	case 0:
		o.RecordTrace = TraceRecorded
	case TraceRecorded, TraceOff:
	default:
		return o, fmt.Errorf("%w: trace mode %d", ErrBadOption, int(o.RecordTrace))
	}
	if o.MailboxCap < 0 {
		return o, fmt.Errorf("%w: mailbox capacity %d", ErrBadOption, o.MailboxCap)
	}
	if o.MailboxCap == 0 {
		o.MailboxCap = defaultMailboxCap
	}
	switch o.Profile {
	case 0:
		o.Profile = ProfileOff
	case ProfileOff, ProfileOn:
	default:
		return o, fmt.Errorf("%w: profile mode %d", ErrBadOption, int(o.Profile))
	}
	if o.Adversary != nil {
		if err := o.Adversary.Validate(); err != nil {
			return o, fmt.Errorf("%w: %v", ErrBadOption, err)
		}
	}
	return o, nil
}
