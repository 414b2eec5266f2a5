// Package linkreversal is a library of link-reversal routing algorithms,
// reproducing "Partial Reversal Acyclicity" by Radeva & Lynch
// (MIT-CSAIL-TR-2011-022 / PODC 2011) together with the classic algorithms
// it builds on: Full Reversal and Partial Reversal (Gafni & Bertsekas 1981),
// the paper's static NewPR reformulation, the height-based original
// formulation, and the Binary Link Labels generalization.
//
// The public API has three layers:
//
//   - Run / Config: execute any algorithm variant on a graph under a chosen
//     scheduler, optionally checking the paper's invariants after every
//     step, and report work and outcome.
//   - RunDistributed / RunDistributedWith: execute the protocol
//     asynchronously over a simulated message-passing network on a
//     sharded worker pool that batches cross-shard traffic (one node per
//     shard gives per-node asynchrony; see DistOptions), optionally under
//     a seeded network adversary that drops, duplicates, delays and
//     reorders messages while immediate retransmission keeps the run live
//     and sequence numbers apply each reversal once (see NetworkAdversary
//     and the fault presets).
//   - VerifySimulation: drive the paper's simulation relations
//     PR → OneStepPR → NewPR (Theorems 5.2/5.4) to quiescence and report
//     any violation.
//
// Graphs, orientations and ready-made topologies are exposed through type
// aliases of the internal packages, so the full toolkit (generators, DOT
// export, analysis) is available to API users.
package linkreversal

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"linkreversal/internal/automaton"
	"linkreversal/internal/core"
	"linkreversal/internal/dist"
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
	"linkreversal/internal/routing"
	"linkreversal/internal/sched"
	"linkreversal/internal/serve"
	"linkreversal/internal/trace"
	"linkreversal/internal/workload"
)

// Re-exported fundamental types. Aliases keep the internal packages as the
// single source of truth while making every method available to API users.
type (
	// NodeID identifies a node (dense IDs 0..n-1).
	NodeID = graph.NodeID
	// Graph is the fixed undirected communication graph G.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces an immutable Graph.
	GraphBuilder = graph.Builder
	// Orientation is a directed version G' of a Graph.
	Orientation = graph.Orientation
	// Topology is a named graph with destination and initial orientation.
	Topology = workload.Topology
	// Router maintains loop-free routes over a mutable topology.
	Router = routing.Router
	// Height is the (a, b, id) triple of the height-based formulation.
	Height = core.Height
	// DynamicNetwork runs the height-based protocol over a topology that
	// changes at runtime: link and node churn, crash-stop and recovery,
	// exact partition detection, on a pool of shard goroutines.
	DynamicNetwork = dist.DynamicNetwork
	// NetworkSnapshot is the quiescent global state of a DynamicNetwork.
	NetworkSnapshot = dist.Snapshot
	// DynNetOptions tunes NewDynamicNetworkWith: shard count (Shards = n
	// gives every node its own shard goroutine) and partitioning, the
	// network adversary aimed at the height-announcement plane, and the
	// snapshot publication cadence.
	DynNetOptions = dist.DynOptions
	// PartitionError is AwaitQuiescence's exact partition report, naming
	// every live node with no path to the destination. It wraps
	// ErrPartitioned; recover it with errors.As.
	PartitionError = dist.PartitionError
	// DynHeight is the height of a DynamicNetwork node: a TORA-style
	// reference level followed by a Gafni–Bertsekas pair.
	DynHeight = dist.DynHeight
	// RefLevel is the (τ, oid, r) reference-level prefix of a DynHeight.
	RefLevel = dist.RefLevel
	// Execution is a recorded sequence of reversal steps, serializable
	// with EncodeExecution/DecodeExecution and re-runnable with
	// ReplayExecution.
	Execution = automaton.Execution
)

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// DefaultOrientation orients every edge from the lower- to the
// higher-numbered endpoint (a DAG for any graph).
func DefaultOrientation(g *Graph) *Orientation { return graph.NewOrientation(g) }

// OrientationFrom builds an orientation from explicit (from, to) pairs
// covering every edge of g exactly once.
func OrientationFrom(g *Graph, directed [][2]NodeID) (*Orientation, error) {
	return graph.OrientationFromDirected(g, directed)
}

// Ready-made topologies (see internal/workload for details).
var (
	// BadChain is the Θ(n_b²) worst case for Full Reversal.
	BadChain = workload.BadChain
	// AlternatingChain is the Θ(n_b²) worst case for Partial Reversal.
	AlternatingChain = workload.AlternatingChain
	// GoodChain starts destination-oriented.
	GoodChain = workload.GoodChain
	// Star has the destination at the hub and every leaf a sink.
	Star = workload.Star
	// Ladder is a 2×k ladder directed away from one corner.
	Ladder = workload.Ladder
	// Grid is an r×c grid directed away from the top-left corner.
	Grid = workload.Grid
	// LayeredDAG is a connected layered random DAG.
	LayeredDAG = workload.LayeredDAG
	// RandomConnected is a random connected graph with a random DAG
	// orientation.
	RandomConnected = workload.RandomConnected
	// Tree is a random tree oriented low→high.
	Tree = workload.Tree
	// Ring is an n-cycle with a random DAG orientation.
	Ring = workload.Ring
	// Hypercube is the d-dimensional hypercube with a random orientation.
	Hypercube = workload.Hypercube
	// CompleteBipartite is K_{a,b} directed left→right.
	CompleteBipartite = workload.CompleteBipartite
	// BinaryTree is a complete binary tree directed root→leaves.
	BinaryTree = workload.BinaryTree
	// Wheel is a hub-plus-rim wheel graph directed away from the hub.
	Wheel = workload.Wheel
)

// NewRouter builds a dynamic-topology router from a topology (see Router).
func NewRouter(topo *Topology) (*Router, error) { return routing.NewRouter(topo) }

// NewDynamicNetwork starts the dynamic-topology protocol with default
// options (GOMAXPROCS shards, reliable network). Call
// AwaitQuiescence before reading a Snapshot, and Stop when done.
func NewDynamicNetwork(topo *Topology) (*DynamicNetwork, error) {
	return dist.NewDynamicNetwork(topo)
}

// NewDynamicNetworkWith starts the dynamic-topology protocol with explicit
// shard and fault options (see DynNetOptions).
func NewDynamicNetworkWith(topo *Topology, opts DynNetOptions) (*DynamicNetwork, error) {
	return dist.NewDynamicNetworkWith(topo, opts)
}

// SnapshotReader is the lock-free read plane of a DynamicNetwork: one
// atomic load returning the most recently published epoch snapshot, safe
// to call from any number of goroutines while churn runs. It is the
// narrow dependency to accept in code that only routes and inspects —
// handlers, monitors, load drivers — and *DynamicNetwork satisfies it.
type SnapshotReader interface {
	// ReadSnapshot returns the current published snapshot; never nil.
	ReadSnapshot() *NetworkSnapshot
}

// ServeConfig carries the deployment provenance the routing service echoes
// from GET /status — topology name, shard layout, fault scenario and seed —
// so load drivers can stamp measurements with the exact configuration they
// hit.
type ServeConfig = serve.Config

// RouteServer is the HTTP serving layer over a DynamicNetwork: lock-free
// snapshot reads on GET /route/{src}, /orientation, /status and /metrics
// (Prometheus text format), and control-plane writes on POST /links and
// /churn. It implements http.Handler; see the serve package for endpoint
// documentation and docs/OPERATIONS.md for the operator guide.
type RouteServer = serve.Server

// NewRouteServer builds the HTTP serving layer over a running network.
// The network stays owned by the caller (including Stop).
func NewRouteServer(network *DynamicNetwork, cfg ServeConfig) *RouteServer {
	return serve.New(network, cfg)
}

// serveReadHeaderTimeout bounds how long Serve waits for a request's
// headers, so a client that opens a connection and trickles its headers
// cannot hold it forever. Bodies and responses are not timed: a POST /churn
// with an await may legitimately run long.
const serveReadHeaderTimeout = 10 * time.Second

// Serve runs the routing service over network on l until ctx is cancelled
// (returning nil after a graceful drain) or the server fails. The caller
// keeps ownership of both the listener's address choice and the network's
// lifecycle; Serve closes l. Request headers must arrive within 10 s, and
// POST /links and /churn bodies over 1 MiB are answered 413.
func Serve(ctx context.Context, l net.Listener, network *DynamicNetwork, cfg ServeConfig) error {
	srv := &http.Server{
		Handler:           NewRouteServer(network, cfg),
		ReadHeaderTimeout: serveReadHeaderTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		<-errc // always http.ErrServerClosed after Shutdown
		return err
	case err := <-errc:
		return err
	}
}

// ExportDOT renders an orientation in Graphviz DOT format, highlighting the
// given nodes (typically the destination).
func ExportDOT(o *Orientation, name string, highlight ...NodeID) string {
	return graph.DOT(o, name, highlight...)
}

// Algorithm selects the link-reversal variant.
type Algorithm int

const (
	// PR is the original Partial Reversal automaton with set actions
	// (Algorithm 1 of the paper).
	PR Algorithm = iota + 1
	// OneStepPR is PR restricted to one node per step (Algorithm 3).
	OneStepPR
	// NewPR is the paper's static parity-based reformulation (Algorithm 2).
	NewPR
	// FR is Full Reversal (Gafni & Bertsekas).
	FR
	// GBPair is the original height-based Partial Reversal.
	GBPair
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case PR:
		return "PR"
	case OneStepPR:
		return "OneStepPR"
	case NewPR:
		return "NewPR"
	case FR:
		return "FR"
	case GBPair:
		return "GBPair"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Scheduler selects the adversary that picks which enabled sinks step.
type Scheduler int

const (
	// Greedy schedules all enabled sinks together (maximal parallel round).
	Greedy Scheduler = iota + 1
	// RandomSingle schedules one uniformly random enabled sink.
	RandomSingle
	// RandomSubset schedules a random non-empty subset of enabled sinks.
	RandomSubset
	// RoundRobin cycles fairly through node IDs.
	RoundRobin
	// LIFO always schedules the highest-numbered enabled sink.
	LIFO
	// AdversarialMax picks the enabled action that reverses the most edges
	// (one-step lookahead on a cloned automaton).
	AdversarialMax
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	// sched.Table lists the schedulers in the order of the values above.
	if s < Greedy || int(s) > len(sched.Table) {
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
	return sched.Table[s-1].Name
}

// Errors returned by the public API.
var (
	// ErrUnknownAlgorithm is returned for an unrecognized Algorithm value.
	ErrUnknownAlgorithm = errors.New("linkreversal: unknown algorithm")
	// ErrUnknownScheduler is returned for an unrecognized Scheduler value.
	ErrUnknownScheduler = errors.New("linkreversal: unknown scheduler")
	// ErrPartitioned is the sentinel wrapped by every *PartitionError that
	// DynamicNetwork.AwaitQuiescence returns when live nodes have no path
	// to the destination.
	ErrPartitioned = dist.ErrPartitioned
	// ErrBadDistOptions is returned by RunDistributedWith for out-of-range
	// DistOptions values (negative shard counts, unknown partition schemes,
	// invalid adversaries, …).
	ErrBadDistOptions = dist.ErrBadOption
)

// Config parameterizes Run.
type Config struct {
	// Algorithm to execute; default PR.
	Algorithm Algorithm
	// Scheduler adversary; default Greedy.
	Scheduler Scheduler
	// Seed for randomized schedulers.
	Seed int64
	// MaxSteps bounds the execution; 0 = 100·n²+100.
	MaxSteps int
	// CheckInvariants verifies the paper's invariant suite for the chosen
	// variant after every step.
	CheckInvariants bool
	// RecordExecution captures the step sequence in Report.Execution for
	// serialization and replay.
	RecordExecution bool
}

// Report summarizes a run.
type Report struct {
	Algorithm           Algorithm
	Scheduler           Scheduler
	Steps               int
	TotalReversals      int
	DummySteps          int
	Quiesced            bool
	Acyclic             bool
	DestinationOriented bool
	// Final is the resulting orientation.
	Final *Orientation
	// Execution is the recorded step sequence (nil unless
	// Config.RecordExecution was set).
	Execution *Execution
}

func newAutomaton(a Algorithm, in *core.Init) (automaton.Automaton, []automaton.Invariant, error) {
	v, ok := core.VariantNamed(a.String())
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownAlgorithm, int(a))
	}
	return v.New(in), v.Invariants, nil
}

func newScheduler(s Scheduler, seed int64) (sched.Scheduler, error) {
	if s < Greedy || int(s) > len(sched.Table) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownScheduler, int(s))
	}
	return sched.Table[s-1].New(seed), nil
}

// Run executes cfg.Algorithm on (g, initial, dest) until no sink remains
// and returns the run report. The initial orientation must be acyclic.
func Run(g *Graph, initial *Orientation, dest NodeID, cfg Config) (*Report, error) {
	if cfg.Algorithm == 0 {
		cfg.Algorithm = PR
	}
	if cfg.Scheduler == 0 {
		cfg.Scheduler = Greedy
	}
	in, err := core.NewInit(g, initial, dest)
	if err != nil {
		return nil, err
	}
	a, invs, err := newAutomaton(cfg.Algorithm, in)
	if err != nil {
		return nil, err
	}
	s, err := newScheduler(cfg.Scheduler, cfg.Seed)
	if err != nil {
		return nil, err
	}
	opts := sched.Options{MaxSteps: cfg.MaxSteps, Record: cfg.RecordExecution}
	if cfg.CheckInvariants {
		opts.Invariants = invs
	}
	res, err := sched.Run(a, s, opts)
	if err != nil {
		return nil, err
	}
	acyclic, oriented := graph.DestinationDAG(a.Orientation(), dest)
	rep := &Report{
		Algorithm:           cfg.Algorithm,
		Scheduler:           cfg.Scheduler,
		Steps:               res.Steps,
		TotalReversals:      res.TotalReversals,
		Quiesced:            res.Quiesced,
		Acyclic:             acyclic,
		DestinationOriented: oriented,
		Final:               a.Orientation().Clone(),
	}
	if np, ok := a.(*core.NewPR); ok {
		rep.DummySteps = np.DummySteps()
	}
	rep.Execution = res.Execution
	return rep, nil
}

// RunTopology is Run over a ready-made Topology.
func RunTopology(topo *Topology, cfg Config) (*Report, error) {
	return Run(topo.Graph, topo.Initial, topo.Dest, cfg)
}

// DistAlgorithm selects the distributed protocol variant.
type DistAlgorithm = dist.Algorithm

// Distributed protocol variants for RunDistributed.
const (
	// DistFR is asynchronous Full Reversal.
	DistFR = dist.FullReversal
	// DistPR is asynchronous list-based Partial Reversal.
	DistPR = dist.PartialReversal
	// DistNewPR is the asynchronous static (parity) Partial Reversal.
	DistNewPR = dist.StaticPartialReversal
)

// DistEngine names an execution engine. The sharded runtime is the only
// one; DistOptions.Shards ≥ n gives one node per shard, so every node runs
// on its own goroutine with its own inbox.
//
// Deprecated: leave DistOptions.Engine and DynNetOptions.Engine zero.
type DistEngine = dist.Engine

// DistPartition selects the node-to-shard assignment.
type DistPartition = dist.Partition

// DistTrace selects whether a distributed run records the global step
// linearization (DistTraceRecorded, the default) or skips it
// (DistTraceOff) so production-scale runs pay no lock and no O(steps)
// memory for it.
type DistTrace = dist.Trace

// Engine, partition and trace settings for DistOptions.
const (
	// DistSharded names the sharded runtime: nodes partitioned across
	// shard goroutines, intra-shard messages delivered without channels,
	// cross-shard traffic batched.
	//
	// Deprecated: it is the only engine; leave DistOptions.Engine zero.
	DistSharded = dist.Sharded
	// DistPartitionBlock assigns contiguous ID ranges to shards (default).
	DistPartitionBlock = dist.PartitionBlock
	// DistPartitionHash assigns node u to shard u mod shards.
	DistPartitionHash = dist.PartitionHash
	// DistPartitionLocality grows each shard as a BFS region of the
	// topology, keeping neighbourhoods shard-local even when node IDs carry
	// no locality.
	DistPartitionLocality = dist.PartitionLocality
	// DistTraceRecorded records the linearized step trace (default); the
	// trace is what the sequential replay cross-checks consume.
	DistTraceRecorded = dist.TraceRecorded
	// DistTraceOff disables trace recording for production-scale runs; the
	// final orientation and statistics are unaffected.
	DistTraceOff = dist.TraceOff
)

// DistOptions tunes RunDistributedWith: shard count (Shards ≥ n gives one
// node per shard), partition scheme, trace recording and the network
// adversary (Adversary field; nil = reliable network). The zero value
// reproduces RunDistributed's behaviour.
type DistOptions = dist.Options

// EngineObserver is the engine-deep observability hook for both execution
// planes: set one on DistOptions.Observer or DynNetOptions.Observer and the
// engines feed it per-shard telemetry counters and a deterministic-sampled
// flight recorder of protocol events. A nil observer costs nothing — every
// hook collapses to one branch. See internal/obs for the counter and
// sampling semantics.
type EngineObserver = obs.Observer

// EngineEvent is one decoded flight-recorder entry: a protocol event
// (reversal, delivery, ack, retransmit, epoch publication,
// reference-level reflect, partition detect, link churn) stamped with the
// observer's logical clock.
type EngineEvent = obs.Event

// EngineEventKind discriminates EngineEvent entries.
type EngineEventKind = obs.EventKind

// ShardStats is one shard's telemetry snapshot: work and transport
// counters, run-queue and inbox high-water marks, busy/idle time and
// flight-recorder occupancy.
type ShardStats = obs.ShardStats

// NewEngineObserver returns an observer with the default ring size and
// sample-every-event policy; adjust the fields before the run starts.
func NewEngineObserver() *EngineObserver { return obs.New() }

// NetworkAdversary is a seeded fault-injection scenario for
// RunDistributedWith: a fault policy plus the seed every decision is
// replayable from and the retry budget of the fair-loss bound. Use the
// presets (LossyNetwork, FlakyNetwork, AdversarialNetwork) or compose one
// with NewNetworkAdversary from the Fault* policies.
type NetworkAdversary = faults.Adversary

// FaultPolicy decides, per transmission, whether the network drops,
// duplicates or holds back a message. Policies are pure functions of the
// seeded per-decision random stream and the transmission's coordinates,
// which is what keeps adversarial runs replayable.
type FaultPolicy = faults.Policy

// Composable fault policies for NewNetworkAdversary.
type (
	// FaultDrop loses each transmission with probability P.
	FaultDrop = faults.Drop
	// FaultDropFirst loses the first K transmission attempts of every
	// payload (targeted loss; capped by the retry budget).
	FaultDropFirst = faults.DropFirst
	// FaultDuplicate delivers Extra additional copies with probability P.
	FaultDuplicate = faults.Duplicate
	// FaultDelay requeues transmissions at the back of the receiver's
	// queue up to Bound times with probability P (logical-time holdback).
	FaultDelay = faults.Delay
	// FaultReorder requeues a transmission behind the receiver's current
	// backlog once, with probability P.
	FaultReorder = faults.Reorder
	// FaultChain composes policies (drops win, duplication accumulates,
	// holdbacks add up).
	FaultChain = faults.Chain
)

// LossyNetwork is the loss preset: 15% of all transmissions dropped;
// liveness comes entirely from retransmitting each dropped payload at once
// under the fair-loss bound.
func LossyNetwork(seed int64) *NetworkAdversary { return faults.Lossy(seed) }

// FlakyNetwork is the mixed preset: moderate loss, duplication and delay
// at once.
func FlakyNetwork(seed int64) *NetworkAdversary { return faults.Flaky(seed) }

// AdversarialNetwork is the hostile preset: targeted first-k loss on every
// payload plus probabilistic loss, duplication and heavy reordering.
func AdversarialNetwork(seed int64) *NetworkAdversary { return faults.Adversarial(seed) }

// NewNetworkAdversary builds a custom fault scenario from a policy and a
// seed, with the default retry budget.
func NewNetworkAdversary(p FaultPolicy, seed int64) *NetworkAdversary { return faults.New(p, seed) }

// DistReport summarizes a distributed run. The fault counters are zero on
// a reliable network.
type DistReport struct {
	Algorithm      DistAlgorithm
	Messages       int
	Batches        int
	Steps          int
	TotalReversals int
	// Drops, Dups, Held, Retransmits and Acks report the network
	// adversary's interference and the reliable-delivery traffic that
	// neutralized it: one retransmission per dropped payload attempt, one
	// ack per delivered payload copy.
	Drops       int
	Dups        int
	Held        int
	Retransmits int
	Acks        int
	// Remote counts cross-shard messages (zero with one shard).
	Remote              int
	Acyclic             bool
	DestinationOriented bool
	Final               *Orientation
	// Shards is the per-shard telemetry captured when DistOptions.Observer
	// was armed (nil otherwise): one entry per engine shard plus a trailing
	// control-plane entry with Shard == -1.
	Shards []ShardStats
}

// RunDistributed executes the protocol over an asynchronous
// message-passing network, with the nodes partitioned across GOMAXPROCS
// shard goroutines, and returns once it quiesces.
func RunDistributed(ctx context.Context, topo *Topology, alg DistAlgorithm) (*DistReport, error) {
	return RunDistributedWith(ctx, topo, alg, DistOptions{})
}

// RunDistributedWith is RunDistributed with explicit options; see
// DistOptions. Every shard layout realizes legal asynchronous executions
// of the same protocol and quiesces on the same final orientation —
// including under a configured NetworkAdversary, whose interference
// changes the schedule and the transport traffic but never the outcome.
func RunDistributedWith(ctx context.Context, topo *Topology, alg DistAlgorithm, opts DistOptions) (*DistReport, error) {
	in, err := topo.Init()
	if err != nil {
		return nil, err
	}
	res, err := dist.RunWith(ctx, in, alg, opts)
	if err != nil {
		return nil, err
	}
	acyclic, oriented := graph.DestinationDAG(res.Final, topo.Dest)
	return &DistReport{
		Algorithm:           alg,
		Messages:            res.Stats.Messages,
		Batches:             res.Stats.Batches,
		Steps:               res.Stats.Steps,
		TotalReversals:      res.Stats.TotalReversals,
		Drops:               res.Stats.Drops,
		Dups:                res.Stats.Dups,
		Held:                res.Stats.Held,
		Retransmits:         res.Stats.Retransmits,
		Acks:                res.Stats.Acks,
		Remote:              res.Stats.Remote,
		Acyclic:             acyclic,
		DestinationOriented: oriented,
		Final:               res.Final,
		Shards:              res.Shards,
	}, nil
}

// SimulationReport summarizes a VerifySimulation run.
type SimulationReport struct {
	PRSteps        int
	OneStepPRSteps int
	NewPRSteps     int
	DummySteps     int
	OrientationsEq bool
}

// VerifySimulation drives the simulation relations R′ (PR → OneStepPR) and
// R (OneStepPR → NewPR) to quiescence under a seeded random set schedule,
// checking both relations after every PR step. It returns an error naming
// the violated clause if either relation fails (they never do — this is the
// machine-checked Theorem 5.5).
func VerifySimulation(topo *Topology, seed int64) (*SimulationReport, error) {
	in, err := topo.Init()
	if err != nil {
		return nil, err
	}
	d := core.NewSimulationDriver(in)
	if err := d.Run(rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	if !d.Quiescent() {
		return nil, fmt.Errorf("linkreversal: simulation did not quiesce")
	}
	return &SimulationReport{
		PRSteps:        d.PR().Steps(),
		OneStepPRSteps: d.OneStepPR().Steps(),
		NewPRSteps:     d.NewPR().Steps(),
		DummySteps:     d.NewPR().DummySteps(),
		OrientationsEq: d.PR().Orientation().Equal(d.NewPR().Orientation()),
	}, nil
}

// EncodeExecution serializes a recorded execution as JSON.
func EncodeExecution(w io.Writer, e *Execution) error { return trace.EncodeExecution(w, e) }

// DecodeExecution parses an execution serialized by EncodeExecution.
func DecodeExecution(r io.Reader) (*Execution, error) { return trace.DecodeExecution(r) }

// ReplayExecution re-applies a recorded execution to a fresh automaton of
// the given variant on (g, initial, dest), verifying every recorded step.
// It returns a report of the replayed run.
func ReplayExecution(g *Graph, initial *Orientation, dest NodeID, alg Algorithm, e *Execution) (*Report, error) {
	in, err := core.NewInit(g, initial, dest)
	if err != nil {
		return nil, err
	}
	a, _, err := newAutomaton(alg, in)
	if err != nil {
		return nil, err
	}
	steps, err := trace.Replay(a, e)
	if err != nil {
		return nil, err
	}
	acyclic, oriented := graph.DestinationDAG(a.Orientation(), dest)
	return &Report{
		Algorithm:           alg,
		Steps:               steps,
		TotalReversals:      a.TotalReversals(),
		Quiesced:            a.Quiescent(),
		Acyclic:             acyclic,
		DestinationOriented: oriented,
		Final:               a.Orientation().Clone(),
	}, nil
}

// IsAcyclic reports whether o contains no directed cycle.
func IsAcyclic(o *Orientation) bool { return graph.IsAcyclic(o) }

// IsDestinationOriented reports whether every node has a directed path to
// dest in o.
func IsDestinationOriented(o *Orientation, dest NodeID) bool {
	return graph.IsDestinationOriented(o, dest)
}

// BadNodes returns the nodes with no directed path to dest (the n_b of the
// worst-case bound), in ascending order.
func BadNodes(o *Orientation, dest NodeID) []NodeID { return graph.BadNodes(o, dest) }
