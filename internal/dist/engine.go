package dist

import (
	"context"
	"fmt"
	"sync"

	"linkreversal/internal/core"
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
)

// runCore is one RunWith invocation: the run's nodes on a shardRuntime of
// shardMsg, and what their shards share. The in-flight tokens that detect
// quiescence are an atomic count; the statistics are plain fields of each
// shard, folded once the shards have exited, so a step touches no shared
// word. Only the optional trace (and the failure slot) sit behind mu: when
// Options.RecordTrace is off, the mutex is never taken after construction.
type runCore struct {
	inflight tokens

	stepLimit   int64
	recordTrace bool
	// inj is the armed fault injector, nil on a reliable network. Shards
	// route every transmission through it when set.
	inj   *faults.Injector
	rt    *shardRuntime[shardMsg]
	nodes *nodeTable
	// shards are the static plane's views of rt's workers; snapshot adds
	// up their counters.
	shards []*shard

	mu      sync.Mutex // guards trace and failure only
	trace   []graph.NodeID
	failure error

	quietOnce sync.Once
	quiet     chan struct{} // closed when inflight first reaches zero
	stop      chan struct{} // closed to terminate all goroutines
	wg        sync.WaitGroup
}

// newRunCore builds the run of alg on in's topology over shards shards;
// RunWith starts it. Only the node table's layout is built here: each
// shard fills its own nodes' entries when its goroutine starts.
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
	// The partitioner is built before the node table: newNodeTable packs
	// the bit views densely within one shard's nodes and word-aligns the
	// boundaries between shards, so it needs the ownership map up front.
	part := newPartitioner(opts.Partition, n, shards, g.Neighbors)
	c.rt = newShardRuntime[shardMsg](part, &c.inflight, c.stop, &c.wg, opts.Observer)
	nodes, members := newNodeTable(in, alg, c.inj != nil, part)
	c.nodes = nodes
	c.shards = make([]*shard, shards)
	for i, w := range c.rt.workers {
		s := &shard{worker: w, run: c}
		c.shards[i] = s
		w.handle = s.process
		w.initial = func() {
			c.nodes.fill(in, members[i])
			for _, u := range members[i] {
				c.nodes.act(s, u)
			}
		}
	}
	return c
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

// release drops a finished run's node table and run-queue arrays. A shard
// goroutine can still be on its way out after wg.Done, its stack keeping c
// reachable, and would otherwise carry them into the caller's next run,
// where a collection would set the heap goal from both runs' tables.
func (c *runCore) release() {
	for _, w := range c.rt.workers {
		w.local, w.spare = nil, nil
	}
	c.nodes = nil
}

// snapshot assembles the Stats from the shards' counters, the transport
// counters of the runtime and the injector's. Callers must ensure all
// shard goroutines have exited.
func (c *runCore) snapshot() Stats {
	var s Stats
	for _, sh := range c.shards {
		s.Steps += int(sh.steps)
		s.TotalReversals += int(sh.reversals)
		s.Acks += int(sh.acks)
		s.Retransmits += int(sh.retransmits)
	}
	s.Messages = s.TotalReversals // one announcement per reversed edge
	s.Batches = int(c.rt.batches.Load())
	s.Remote = int(c.rt.remote.Load())
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
	defer c.release()
	if err := c.run(ctx); err != nil {
		return nil, err
	}
	// run's wg.Wait happens-after every shard goroutine exit, so reading
	// node views here is race-free.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return nil, c.failure
	}
	final, err := graph.OrientationFromHeads(g, c.nodes.heads())
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

// run starts the shards and waits for quiescence or the end of ctx, then
// stops every shard goroutine and returns ctx's error, if any.
func (c *runCore) run(ctx context.Context) error {
	c.rt.start()
	var err error
	select {
	case <-c.quiet:
	case <-ctx.Done():
		err = ctx.Err()
	}
	close(c.stop)
	c.wg.Wait()
	return err
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
// payload (or of the payload being acked), Kind the transmission class,
// and Hold the remaining number of delivery opportunities that may overtake
// this message (the fault adversary's logical-time holdback; the shard
// re-enqueues the message and decrements Hold until it reaches zero).
type shardMsg struct {
	To   graph.NodeID
	Slot int32
	Seq  uint32
	Kind msgKind
	Hold uint8
}

// shard is the static plane's view of one runtime worker: the protocol
// rules of run.go hand it their steps and messages. Its counters are its
// share of the run's Stats; only the shard goroutine writes them, and
// runCore.snapshot reads them after the WaitGroup drained, as RunWith
// reads the nodes' views.
type shard struct {
	*worker[shardMsg]
	run *runCore

	steps, reversals, acks, retransmits int64
}

// announce records one step by a node of this shard that reverses the
// edges to targets neighbours: it counts the step against the run's step
// budget and, when trace recording is on, appends it to the shared trace
// under the core mutex. No in-flight token is taken per message (see
// tokens). The step's messages move only after announce returns (the
// run-queue and outboxes are drained later): recording before sending is
// what makes the trace a legal sequential execution — any later step
// enabled by one of these reversals happens after its message is
// delivered, hence after this append.
func (s *shard) announce(u graph.NodeID, targets int) {
	c := s.run
	if c.recordTrace {
		c.mu.Lock()
		c.trace = append(c.trace, u)
		c.mu.Unlock()
	}
	s.steps++
	s.reversals += int64(targets)
	if s.steps > c.stepLimit {
		c.fail(fmt.Errorf("%w: %d steps", ErrStepLimit, s.steps))
	}
	if s.obs != nil {
		s.obs.Step(u, targets)
	}
}

// send routes one reversal announcement through the fault injector's
// loss rule: each dropped attempt is retransmitted at once, until one
// survives under the fair-loss bound. It counts the retransmissions, so
// the Stats are exact whatever the fates, and routes the surviving
// copies (plus duplicates) with their holdback. Batch-token quiescence
// already covers all of this traffic, so no extra tokens are needed.
func (s *shard) send(from, to graph.NodeID, toSlot int32, seq uint32) {
	retries, f := s.run.inj.Send(faults.Link{From: from, To: to}, uint64(seq))
	s.retransmits += int64(retries)
	if s.obs != nil {
		for range retries {
			s.obs.Retransmit(from, to, int64(seq))
		}
	}
	s.emit(shardMsg{To: to, Slot: toSlot, Seq: seq, Kind: msgData}, f)
}

// ack acknowledges one delivered copy of the payload seq to its sender,
// through the fault injector. Nothing reads an ack when it arrives: acks
// are counted traffic (Stats.Acks, their share of the fault counters and
// of Remote), and a dropped one is simply gone.
func (s *shard) ack(from, to graph.NodeID, toSlot int32, seq uint32) {
	s.acks++
	if s.obs != nil {
		s.obs.Ack(from, to, int64(seq))
	}
	f := s.run.inj.Judge(faults.Link{From: from, To: to}, faults.Msg{Seq: uint64(seq), Ack: true})
	if !f.Drop {
		s.emit(shardMsg{To: to, Slot: toSlot, Seq: seq, Kind: msgAck}, f)
	}
}

// emit routes the 1+f.Extra copies of m that survived the adversary, each
// carrying f's holdback.
func (s *shard) emit(m shardMsg, f faults.Fate) {
	m.Hold = uint8(f.Hold)
	for range 1 + f.Extra {
		s.route(m.To, m)
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
	if t := s.run.nodes; t.recvSeq != nil {
		t.handle(s, m)
	} else {
		t.receive(s, m.To, m.Slot)
	}
}
