package dist

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"linkreversal/internal/faults"
	"linkreversal/internal/obs"
)

// Engine names an execution engine. The sharded runtime is the only one;
// per-node asynchrony comes from Options.Shards ≥ n (or DynOptions.Shards
// = n), which gives every node its own shard goroutine and inbox.
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

// ParsePartition returns the scheme that String spells s, ignoring case;
// the empty string names the default, PartitionBlock.
func ParsePartition(s string) (Partition, error) {
	if s == "" {
		return PartitionBlock, nil
	}
	for p := PartitionBlock; p <= PartitionLocality; p++ {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%w: partition %q (want block, hash or locality)", ErrBadOption, s)
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
	// TraceOff disables trace recording: a step touches only its own
	// shard's counters, removing the last lock and the last shared write
	// from the hot path, and no O(steps) trace slice is retained — which is what makes million-node runs fit in memory.
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

// ErrBadOption is returned by RunWith for out-of-range Options values.
var ErrBadOption = errors.New("dist: invalid option")

// stepLimitSlack is the additive slack of RunWith's runaway-step budget
// 200·n² + slack. Each shard holds its own step count to the budget, so a
// runaway shard trips it as before, while a run whose steps spread over
// several shards may take up to that many budgets before one of them
// does. Exceeding the budget aborts the run with ErrStepLimit; it
// indicates an engine bug, not a property of the algorithms.
const stepLimitSlack = 200

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
	// runs on its own goroutine with its own inbox, the finest-grained
	// asynchrony the runtime offers. Each shard keeps one outbox slot and
	// one unread-batch count per shard, so that setting costs n² pointers
	// and n² counts (12 MB at 1k nodes).
	Shards int
	// Partition selects the node-to-shard assignment; 0 means
	// PartitionBlock.
	Partition Partition
	// RecordTrace selects whether the run records the global step
	// linearization; 0 means TraceRecorded. Set TraceOff for
	// production-scale runs: it drops the only lock on the hot path and the
	// O(steps) trace memory, at the price of Result.Trace (and with it the
	// sequential replay cross-check).
	RecordTrace Trace
	// Adversary injects seeded network faults (loss, duplication, delay,
	// reorder) between senders and receivers; nil means a reliable network
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
	// Shards is the number of shard goroutines, clamped to the initial
	// node count; 0 means GOMAXPROCS. Shards ≥ n gives one node per shard:
	// every initial node runs on its own goroutine with its own inbox.
	// Nodes added later by AddNode join the existing shards (see
	// Partition).
	Shards int
	// Partition selects the node-to-shard assignment; 0 means
	// PartitionBlock. PartitionLocality grows its regions over the
	// construction-time topology only — later link churn does not
	// re-partition. Nodes added at runtime overflow the construction-time
	// assignment: PartitionHash hashes them like any node, the other
	// schemes put them on the last shard.
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

// sharedDefaults validates the options both planes share — Engine,
// Partition, Shards and Adversary — and fills in the defaults of a zero
// Partition and Shards.
func sharedDefaults(e Engine, part *Partition, shards *int, adv *faults.Adversary) error {
	if e != 0 && e != Sharded {
		return fmt.Errorf("%w: engine %d", ErrBadOption, int(e))
	}
	switch *part {
	case 0:
		*part = PartitionBlock
	case PartitionBlock, PartitionHash, PartitionLocality:
	default:
		return fmt.Errorf("%w: partition %d", ErrBadOption, int(*part))
	}
	if *shards < 0 {
		return fmt.Errorf("%w: %d shards", ErrBadOption, *shards)
	}
	if *shards == 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	if adv != nil {
		if err := adv.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadOption, err)
		}
	}
	return nil
}

// withDefaults validates o and fills in the defaults for zero fields.
func (o DynOptions) withDefaults() (DynOptions, error) {
	if err := sharedDefaults(o.Engine, &o.Partition, &o.Shards, o.Adversary); err != nil {
		return o, err
	}
	if o.PublishEvery < 0 {
		return o, fmt.Errorf("%w: publish cadence %v", ErrBadOption, o.PublishEvery)
	}
	return o, nil
}

// withDefaults validates o and fills in the defaults for zero fields.
func (o Options) withDefaults() (Options, error) {
	if err := sharedDefaults(o.Engine, &o.Partition, &o.Shards, o.Adversary); err != nil {
		return o, err
	}
	switch o.RecordTrace {
	case 0:
		o.RecordTrace = TraceRecorded
	case TraceRecorded, TraceOff:
	default:
		return o, fmt.Errorf("%w: trace mode %d", ErrBadOption, int(o.RecordTrace))
	}
	return o, nil
}
