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

// runCore is the accounting shared by the shards of one RunWith
// invocation. The hot-path counters — statistics and the in-flight token
// count that detects quiescence — are plain atomics, so steps on different
// shards never serialize through a lock. Only the optional trace
// (and the failure slot) sit behind mu: when Options.RecordTrace is off,
// the mutex is never taken after construction.
type runCore struct {
	inflight    atomic.Int64
	steps       atomic.Int64
	reversals   atomic.Int64
	messages    atomic.Int64
	batches     atomic.Int64
	acks        atomic.Int64
	retransmits atomic.Int64
	// remote and coalesced are the transport counters: cross-shard
	// transmissions (counted before coalescing) and squashed duplicate
	// copies. Shards accumulate them locally and fold them in at flush
	// time, so neither costs a per-message atomic.
	remote    atomic.Int64
	coalesced atomic.Int64

	stepLimit   int64
	recordTrace bool
	// inj is the armed fault injector, nil on a reliable network. Shards
	// route every transmission through it when set.
	inj *faults.Injector
	// nodeSteps and nodeWork are the per-node profile counters, nil unless
	// Options.Profile is ProfileOn. Slot u is written only by the shard
	// that owns u, so the writes need no synchronization; readers wait for
	// wg before looking.
	nodeSteps []int64
	nodeWork  []int64

	mu      sync.Mutex // guards trace and failure only
	trace   []graph.NodeID
	failure error

	quietOnce sync.Once
	quiet     chan struct{} // closed when inflight first reaches zero
	stop      chan struct{} // closed to terminate all goroutines
	wg        sync.WaitGroup
}

func newRunCore(stepLimit int64, startTokens int, recordTrace bool) *runCore {
	c := &runCore{
		stepLimit:   stepLimit,
		recordTrace: recordTrace,
		quiet:       make(chan struct{}),
		stop:        make(chan struct{}),
	}
	c.inflight.Store(int64(startTokens))
	return c
}

// record marks the beginning of a step by node u that reverses the edges to
// targets neighbours: it appends the step to the global linearization (when
// trace recording is on) and updates the statistics. No in-flight token is
// taken per message: intra-shard deliveries finish before the shard retires
// the token it currently holds, and cross-shard batches take their own
// token at flush time. The caller must hand the step's messages to the
// transport only after record returns: recording before sending is what
// makes the trace a legal sequential execution — any later step enabled by
// one of these reversals happens after its message is delivered, hence
// after this append.
func (c *runCore) record(u graph.NodeID, targets int) {
	if c.recordTrace {
		c.mu.Lock()
		c.trace = append(c.trace, u)
		c.mu.Unlock()
	}
	if c.nodeSteps != nil {
		c.nodeSteps[u]++
		c.nodeWork[u] += int64(targets)
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
	c.quietOnce.Do(func() { close(c.quiet) })
}

// addBatches accounts n message batches about to enter the transport: one
// in-flight token per batch, added before the batch is sent — and while the
// sending shard still holds its own unretired token — so the counter can
// never reach zero while a batch exists.
func (c *runCore) addBatches(n int) {
	c.inflight.Add(int64(n))
	c.batches.Add(int64(n))
}

// done retires n in-flight tokens and closes quiet when none remain. A
// token is retired only after its holder has fully processed the message or
// batch it stands for (including any steps it triggered), so the count
// hitting zero implies every view is exact and no node is a sink: global
// quiescence. The atomic decrement observes zero in exactly one goroutine,
// which closes quiet.
func (c *runCore) done(n int) {
	if c.inflight.Add(int64(-n)) == 0 {
		c.quietOnce.Do(func() { close(c.quiet) })
	}
}

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

// snapshot assembles the Stats from the atomic counters. Callers must
// ensure the run has quiesced (or all goroutines exited).
func (c *runCore) snapshot() Stats {
	s := Stats{
		Messages:       int(c.messages.Load()),
		Batches:        int(c.batches.Load()),
		Steps:          int(c.steps.Load()),
		TotalReversals: int(c.reversals.Load()),
		Acks:           int(c.acks.Load()),
		Retransmits:    int(c.retransmits.Load()),
		Remote:         int(c.remote.Load()),
		Coalesced:      int(c.coalesced.Load()),
	}
	if c.inj != nil {
		fs := c.inj.Snapshot()
		s.Drops, s.Dups, s.Held = fs.Drops, fs.Dups, fs.Held
	}
	return s
}

// stopped reports whether the run has been told to shut down, without
// blocking. Long local cascades poll it so cancellation stays prompt.
func (c *runCore) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
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
	n := g.NumNodes()
	// NewPR takes at most one dummy step per real step, and sequential
	// executions are bounded well under 100·n²+100 steps; double that
	// factor so hitting the limit can only mean an engine bug.
	limit := 200*int64(n)*int64(n) + stepLimitSlack
	shards := min(opts.Shards, n)
	c := newRunCore(limit, shards, opts.RecordTrace == TraceRecorded) // one start token per shard
	if opts.Adversary != nil {
		c.inj = faults.NewInjector(opts.Adversary)
	}
	if opts.Profile == ProfileOn {
		c.nodeSteps = make([]int64, n)
		c.nodeWork = make([]int64, n)
	}
	// One sink per shard; the shards pick theirs up from opts.
	opts.Observer.Attach(shards)
	eng := newShardEngine(c, in, alg, opts, shards)
	eng.start()

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
		if eng.nodes[e.U].incomingTo(e.V) {
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
		Final:         final,
		Stats:         c.snapshot(),
		Trace:         c.trace,
		NodeSteps:     c.nodeSteps,
		NodeReversals: c.nodeWork,
	}
	if opts.Observer != nil {
		res.Shards = opts.Observer.ShardStats()
	}
	return res, nil
}
