package dist

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"linkreversal/internal/core"
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
)

// runCore is one RunWith invocation: the run's nodes on a shardRuntime of
// shardMsg, and the accounting their shards share. The hot-path counters —
// statistics and the in-flight tokens that detect quiescence — are plain
// atomics, so steps on different shards never serialize through a lock.
// Only the optional trace (and the failure slot) sit behind mu: when
// Options.RecordTrace is off, the mutex is never taken after construction.
type runCore struct {
	inflight    tokens
	steps       atomic.Int64
	reversals   atomic.Int64
	messages    atomic.Int64
	acks        atomic.Int64
	retransmits atomic.Int64

	stepLimit   int64
	recordTrace bool
	// inj is the armed fault injector, nil on a reliable network. Shards
	// route every transmission through it when set.
	inj   *faults.Injector
	rt    *shardRuntime[shardMsg]
	nodes []runNode

	mu      sync.Mutex // guards trace and failure only
	trace   []graph.NodeID
	failure error

	quietOnce sync.Once
	quiet     chan struct{} // closed when inflight first reaches zero
	stop      chan struct{} // closed to terminate all goroutines
	wg        sync.WaitGroup
}

// newRunCore builds the run of alg on in's topology over shards shards;
// RunWith starts it.
func newRunCore(in *core.Init, alg Algorithm, opts Options, shards int) *runCore {
	g := in.Graph()
	n := g.NumNodes()
	c := &runCore{
		// NewPR takes at most one dummy step per real step, and sequential
		// executions are bounded well under 100·n²+100 steps; double that
		// factor so hitting the limit can only mean an engine bug.
		stepLimit:   200*int64(n)*int64(n) + stepLimitSlack,
		recordTrace: opts.RecordTrace == TraceRecorded,
		quiet:       make(chan struct{}),
		stop:        make(chan struct{}),
	}
	c.inflight.onZero = c.unblock
	if opts.Adversary != nil {
		c.inj = faults.NewInjector(opts.Adversary)
	}
	// The partitioner is built before the node table: newRunNodes packs the
	// bit views densely within one shard's nodes and word-aligns the
	// boundaries between shards, so it needs the ownership map up front.
	part := newPartitioner(opts.Partition, n, shards, g.Neighbors)
	c.rt = newShardRuntime[shardMsg](part, opts.MailboxCap, &c.inflight, c.stop, &c.wg, opts.Observer)
	c.nodes = newRunNodes(in, alg, c.inj != nil, part.shardOf)
	owned := make([][]*runNode, shards)
	for u := range c.nodes {
		d := part.shardOf(graph.NodeID(u))
		owned[d] = append(owned[d], &c.nodes[u])
	}
	for i, w := range c.rt.workers {
		s := &shard{worker: w, run: c}
		w.handle = s.process
		w.initial = func() {
			for _, nd := range owned[i] {
				nd.act(s)
			}
		}
	}
	return c
}

// record marks the beginning of a step by node u that reverses the edges to
// targets neighbours: it appends the step to the global linearization (when
// trace recording is on) and updates the statistics. No in-flight token is
// taken per message (see tokens). The caller must hand the step's messages
// to the transport only after record returns: recording before sending is
// what makes the trace a legal sequential execution — any later step
// enabled by one of these reversals happens after its message is delivered,
// hence after this append.
func (c *runCore) record(u graph.NodeID, targets int) {
	if c.recordTrace {
		c.mu.Lock()
		c.trace = append(c.trace, u)
		c.mu.Unlock()
	}
	steps := c.steps.Add(1)
	c.reversals.Add(int64(targets))
	c.messages.Add(int64(targets))
	if steps > c.stepLimit {
		c.fail(fmt.Errorf("%w: %d steps", ErrStepLimit, steps))
	}
}

// fail records the first failure and forces the run to unblock.
func (c *runCore) fail(err error) {
	c.mu.Lock()
	if c.failure == nil {
		c.failure = err
	}
	c.mu.Unlock()
	c.unblock()
}

// unblock closes quiet, once. It is the in-flight tokens' zero hook: the
// count hitting zero implies every view is exact and no node is a sink —
// global quiescence — and no token can appear afterwards, so the static
// plane crosses zero at most once.
func (c *runCore) unblock() { c.quietOnce.Do(func() { close(c.quiet) }) }

// countSend records the reliability-layer cost of one transmission before
// it is judged by the injector: retransmitted payloads and acknowledgements
// are counted here so the Stats are exact regardless of the transmission's
// fate.
func (c *runCore) countSend(kind msgKind, attempt int32) {
	switch {
	case kind == msgAck:
		c.acks.Add(1)
	case kind == msgData && attempt > 0:
		c.retransmits.Add(1)
	}
}

// judgeSend is the accounting half of a faulty transmission: it counts
// the reliability traffic and consults the injector. dropped reports the
// transmission was lost; notify that the shard must route a loss
// notification back to the sender (payload drops only — lost acks are
// silently gone, the payload's own retransmission path recovers). The fate
// carries the duplication and holdback of delivered transmissions.
func (c *runCore) judgeSend(from, to graph.NodeID, seq uint32, attempt int32, kind msgKind) (f faults.Fate, dropped, notify bool) {
	c.countSend(kind, attempt)
	f = c.inj.Judge(
		faults.Link{From: from, To: to},
		faults.Msg{Seq: uint64(seq), Attempt: int(attempt), Ack: kind == msgAck},
	)
	if f.Drop {
		return f, true, kind != msgAck
	}
	return f, false, false
}

// snapshot assembles the Stats from the atomic counters and the
// transport counters of the runtime. Callers must ensure the run has
// quiesced (or all goroutines exited).
func (c *runCore) snapshot() Stats {
	s := Stats{
		Messages:       int(c.messages.Load()),
		Batches:        int(c.rt.batches.Load()),
		Steps:          int(c.steps.Load()),
		TotalReversals: int(c.reversals.Load()),
		Acks:           int(c.acks.Load()),
		Retransmits:    int(c.retransmits.Load()),
		Remote:         int(c.rt.remote.Load()),
	}
	if c.inj != nil {
		fs := c.inj.Snapshot()
		s.Drops, s.Dups, s.Held = fs.Drops, fs.Dups, fs.Held
	}
	return s
}

// RunWith executes alg on in's topology on the sharded runtime until global
// quiescence and returns the final orientation, cost statistics and —
// unless opts.RecordTrace is TraceOff — the linearized step trace. It
// returns ctx.Err() if the context is cancelled first — cancellation
// propagates into the shards' stop path mid-run, it does not wait for
// quiescence.
func RunWith(ctx context.Context, in *core.Init, alg Algorithm, opts Options) (*Result, error) {
	switch alg {
	case FullReversal, PartialReversal, StaticPartialReversal:
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownAlgorithm, int(alg))
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := in.Graph()
	shards := min(opts.Shards, g.NumNodes())
	// One sink per shard; the shards pick theirs up from opts.
	opts.Observer.Attach(shards)
	c := newRunCore(in, alg, opts, shards)
	c.rt.start()

	var ctxErr error
	select {
	case <-c.quiet:
	case <-ctx.Done():
		ctxErr = ctx.Err()
	}
	close(c.stop)
	c.wg.Wait()
	if ctxErr != nil {
		return nil, ctxErr
	}
	// wg.Wait happens-after every shard goroutine exit, so reading node
	// views here is race-free. At quiescence both endpoints agree on every
	// edge, so either view reconstructs the orientation.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return nil, c.failure
	}
	directed := make([][2]graph.NodeID, 0, g.NumEdges())
	for _, e := range g.Edges() {
		if c.nodes[e.U].incomingTo(e.V) {
			directed = append(directed, [2]graph.NodeID{e.V, e.U})
		} else {
			directed = append(directed, [2]graph.NodeID{e.U, e.V})
		}
	}
	final, err := graph.OrientationFromDirected(g, directed)
	if err != nil {
		return nil, fmt.Errorf("dist: reassemble final orientation: %w", err)
	}
	res := &Result{
		Final: final,
		Stats: c.snapshot(),
		Trace: c.trace,
	}
	if opts.Observer != nil {
		res.Shards = opts.Observer.ShardStats()
	}
	return res, nil
}

// shardMsg is one transmission in transit between nodes, normally a
// reversal announcement: some neighbour of To reversed the shared edge,
// which now points toward To. Slot is the *receiver-side* neighbour slot of
// the sender — the index i with To's nbrs[i] == sender — precomputed once
// at construction, so applying the message is a pair of slice writes with
// no lookup of any kind. For the height-based variants it plays the role
// of the height announcement, and for list-based PR it additionally means
// "add the neighbour at Slot to your list".
//
// Seq, Kind and Hold belong to the reliable-delivery layer and stay zero on
// a reliable network: Seq is the per-directed-link sequence number of the
// payload (or the payload being acked/nacked), Kind the transmission class,
// and Hold the remaining number of delivery opportunities that may overtake
// this message (the fault adversary's logical-time holdback; the shard
// re-enqueues the message and decrements Hold until it reaches zero). For
// msgNack, To is the original sender and Slot its *sender-side* slot of
// the lossy link.
type shardMsg struct {
	To   graph.NodeID
	Slot int32
	Seq  uint32
	Kind msgKind
	Hold uint8
}

// shard is the static plane's view of one runtime worker: the protocol
// rules of run.go hand it their steps and messages. nodes' views are read
// by RunWith only after the WaitGroup drained.
type shard struct {
	*worker[shardMsg]
	run *runCore
}

// announce records one step by a node of this shard. When trace recording
// is on, steps are appended to the shared trace under the core mutex before
// any of their messages moves (the run-queue and outboxes are drained only
// after announce returns), which is what makes the trace a legal
// sequential execution.
func (s *shard) announce(u graph.NodeID, targets int) {
	s.run.record(u, targets)
	if s.obs != nil {
		s.obs.Step(u, targets)
	}
}

// send routes one transmission through the fault injector (judgeSend):
// dropped payloads become loss notifications back to the sender — which is
// always a node this shard owns, so the nack lands in the local run-queue
// — and surviving copies (plus duplicates) are routed with their holdback.
// Batch-token quiescence already covers all of this traffic, so no extra
// tokens are needed.
func (s *shard) send(from graph.NodeID, fromSlot int32, to graph.NodeID, toSlot int32, seq uint32, attempt int32, kind msgKind) {
	f, dropped, notify := s.run.judgeSend(from, to, seq, attempt, kind)
	if s.obs != nil {
		switch {
		case kind == msgAck:
			s.obs.Ack(from, to, int64(seq))
		case kind == msgData && attempt > 0:
			s.obs.Retransmit(from, to, int64(seq))
		}
	}
	if dropped {
		if notify {
			s.local = append(s.local, shardMsg{To: from, Slot: fromSlot, Seq: seq, Kind: msgNack})
			if s.obs != nil {
				s.obs.Nack(from, to, int64(seq))
			}
		}
		return
	}
	m := shardMsg{To: to, Slot: toSlot, Seq: seq, Kind: kind, Hold: uint8(f.Hold)}
	for c := 0; c <= f.Extra; c++ {
		s.route(to, m)
	}
}

// process is the static plane's message handler. A pending holdback sends
// the message to the back of the local run-queue (everything currently
// queued overtakes it — the logical-time delay); everything else reaches
// the owning node.
func (s *shard) process(m shardMsg) {
	if m.Hold > 0 {
		m.Hold--
		s.local = append(s.local, m)
		return
	}
	if s.obs != nil && m.Kind == msgData {
		s.obs.Deliver(m.To, -1, int64(m.Seq))
	}
	nd := &s.run.nodes[m.To]
	if nd.rel != nil {
		nd.handle(s, m)
	} else {
		nd.receive(s, m.Slot)
	}
}
