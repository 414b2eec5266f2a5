package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

// tokens is the in-flight token count both planes detect quiescence by.
// The rule is counted in batches, not messages: each shard starts with one
// token; each cross-shard batch carries one, added before the batch is sent
// while the sending shard still holds its own; and a shard retires the
// token it holds once the batch's local cascade has run dry and its
// outboxes are flushed. Intra-shard messages, fault-plane duplicates and
// holdback requeues ride on the token of the shard that runs them. The
// count therefore reaches zero only when no message exists anywhere and no
// shard is mid-cascade, and onZero runs at that crossing, in the goroutine
// whose retirement caused it.
type tokens struct {
	n      atomic.Int64
	onZero func()
}

// add takes n tokens.
func (t *tokens) add(n int) { t.n.Add(int64(n)) }

// done retires one token.
func (t *tokens) done() {
	if t.n.Add(-1) == 0 {
		t.onZero()
	}
}

// idle reports whether no token is outstanding.
func (t *tokens) idle() bool { return t.n.Load() == 0 }

// batch is a reusable buffer of cross-shard messages. Batches circulate
// through the runtime's pool: a sender takes one when it first writes to an
// outbox, and the receiving shard hands it back after processing, so the
// steady state allocates nothing per flush — the backing arrays are
// recycled at whatever capacity the traffic grew them to.
type batch[M any] struct {
	msgs []M
}

// drainStopCheck is how many local deliveries a shard processes between
// polls of the stop channel. It bounds cancellation latency during long
// intra-shard cascades without paying a select per message.
const drainStopCheck = 256

// shardRuntime is the worker pool both planes run on. Nodes are
// partitioned across a fixed set of shards; each shard owns its nodes'
// state outright and delivers intra-shard messages through a plain slice
// run-queue with no channel or lock on the path. Only cross-shard traffic
// touches the transport: it accumulates in per-destination outboxes and
// travels as pooled batches through each receiver's elastic mailbox pump.
// Goroutine count is 2·shards (one loop plus one pump each); one node per
// shard gives every node its own goroutine and mailbox — per-node
// asynchrony.
//
// A plane supplies its message type M and, per shard, the handler of one
// delivered message and the shard's initial acts (worker.handle and
// worker.initial); the runtime owns everything else, including the
// batch-token quiescence of tokens.
type shardRuntime[M any] struct {
	part    partitioner
	workers []*worker[M]
	tokens  *tokens
	stop    chan struct{}
	wg      *sync.WaitGroup
	// pool recycles flushed batch buffers: senders take, receivers return.
	pool sync.Pool
	// remote and batches are the transport counters behind Stats.Remote
	// and Stats.Batches: cross-shard messages and the batches carrying
	// them, folded in once per flush.
	remote, batches atomic.Int64
}

// worker is one shard of a shardRuntime. Its fields are owned by the shard
// goroutine.
type worker[M any] struct {
	rt *shardRuntime[M]
	id int
	// local is the run-queue of intra-shard deliveries, appended by route
	// and consumed in FIFO order by drain. Its backing array is reused
	// across drains.
	local []M
	// out[d] is the outbox of messages bound for shard d — a pooled batch,
	// taken lazily on first write and handed off whole at flush.
	out []*batch[M]
	// tx is the ingress channel of this shard's mailbox; rx the pump's
	// output.
	tx, rx chan *batch[M]
	// obs is this shard's telemetry sink, nil unless the plane's Observer
	// is armed — every hook below it is guarded by a nil check, so the
	// disarmed hot path costs one predictable branch.
	obs *obs.Shard
	// handle runs one delivered message; initial runs the shard's initial
	// acts. The plane sets both before start.
	handle  func(M)
	initial func()
}

// newShardRuntime builds the workers of part's shards. Their tokens count
// into tok and they exit when stop is closed, each marking wg done.
func newShardRuntime[M any](part partitioner, mailboxCap int, tok *tokens, stop chan struct{}, wg *sync.WaitGroup, o *obs.Observer) *shardRuntime[M] {
	rt := &shardRuntime[M]{
		part:    part,
		workers: make([]*worker[M], part.shards),
		tokens:  tok,
		stop:    stop,
		wg:      wg,
	}
	rt.pool.New = func() any { return new(batch[M]) }
	for i := range rt.workers {
		rt.workers[i] = &worker[M]{
			rt:  rt,
			id:  i,
			out: make([]*batch[M], part.shards),
			tx:  make(chan *batch[M], mailboxCap),
			rx:  make(chan *batch[M]),
			obs: o.Shard(i), // nil when no observer is armed
		}
	}
	return rt
}

// start hands every shard its start token and launches its loop and
// mailbox pump.
func (rt *shardRuntime[M]) start() {
	rt.tokens.add(len(rt.workers))
	for _, w := range rt.workers {
		rt.wg.Add(2)
		go func(w *worker[M]) {
			defer rt.wg.Done()
			mailbox(w.tx, w.rx, rt.stop)
		}(w)
		go w.loop()
	}
}

// getBatch takes an empty batch from the pool; recycle returns a processed
// one. The interface conversion is free (batches travel as pointers), so
// neither direction allocates in the steady state.
func (rt *shardRuntime[M]) getBatch() *batch[M] { return rt.pool.Get().(*batch[M]) }

func (rt *shardRuntime[M]) recycle(b *batch[M]) {
	b.msgs = b.msgs[:0]
	rt.pool.Put(b)
}

// stopped reports whether the runtime has been told to shut down, without
// blocking. Long local cascades poll it so cancellation stays prompt.
func (rt *shardRuntime[M]) stopped() bool {
	select {
	case <-rt.stop:
		return true
	default:
		return false
	}
}

// route files one message for node to by destination shard: same shard →
// local run-queue, otherwise → the destination shard's outbox. No token is
// taken here under either path: intra-shard messages are covered by the
// token the shard currently holds, and cross-shard batches take theirs at
// flush.
func (w *worker[M]) route(to graph.NodeID, m M) {
	if d := w.rt.part.shardOf(to); d != w.id {
		b := w.out[d]
		if b == nil {
			b = w.rt.getBatch()
			w.out[d] = b
		}
		b.msgs = append(b.msgs, m)
		return
	}
	w.local = append(w.local, m)
	if w.obs != nil {
		w.obs.RunQueue(len(w.local))
	}
}

// loop is the shard goroutine: run the shard's initial acts, then serve
// incoming batches until shutdown. The start token is retired after the
// initial cascade, each batch's token after that batch is fully processed —
// at which point the batch buffer goes back to the pool.
func (w *worker[M]) loop() {
	defer w.rt.wg.Done()
	// With an observer armed, the worker's wall clock is split into busy
	// (processing) and idle (blocked on the mailbox) spans around each
	// select. One time.Now per batch, never per message.
	var mark time.Time
	if w.obs != nil {
		mark = time.Now()
	}
	w.initial()
	if !w.drain() {
		return
	}
	w.rt.tokens.done()
	for {
		if w.obs != nil {
			now := time.Now()
			w.obs.Busy(now.Sub(mark))
			mark = now
		}
		select {
		case <-w.rt.stop:
			return
		case b := <-w.rx:
			if w.obs != nil {
				now := time.Now()
				w.obs.Idle(now.Sub(mark))
				mark = now
				w.obs.Mailbox(len(w.tx) + 1) // the batch in hand plus ingress backlog
			}
			for _, m := range b.msgs {
				w.handle(m)
			}
			w.rt.recycle(b)
			if !w.drain() {
				return
			}
			w.rt.tokens.done()
		}
	}
}

// drain runs the local queue to exhaustion — deliveries may enqueue
// further local messages, so the length is re-read every iteration — and
// then flushes the outboxes. It reports false if the runtime stopped, in
// which case the shard goroutine must exit immediately.
func (w *worker[M]) drain() bool {
	for i := 0; i < len(w.local); i++ {
		if i%drainStopCheck == 0 && w.rt.stopped() {
			return false
		}
		w.handle(w.local[i])
	}
	w.local = w.local[:0]
	return w.flush()
}

// flush sends every non-empty outbox to its destination shard as a single
// batch. The batch's in-flight token is added before the send, so the
// count can never reach zero while a batch exists; the receiving shard
// retires the token after fully processing the batch and returns the
// buffer to the pool. The transport counters fold in once per flush, never
// per message.
func (w *worker[M]) flush() bool {
	batches, msgs := 0, 0
	for d, b := range w.out {
		if b == nil {
			continue
		}
		w.rt.tokens.add(1)
		batches++
		msgs += len(b.msgs)
		if w.obs != nil {
			w.obs.Batch(len(b.msgs))
		}
		select {
		case w.rt.workers[d].tx <- b:
		case <-w.rt.stop:
			return false
		}
		w.out[d] = nil // the receiving shard owns the batch now
	}
	if batches > 0 {
		w.rt.batches.Add(int64(batches))
		w.rt.remote.Add(int64(msgs))
	}
	return true
}

// partitioner maps node IDs to shards. Assignments are deterministic and
// total: every node ID — including IDs a dynamic network adds after
// construction, beyond the topology it was built on — belongs to exactly
// one shard in [0, shards).
type partitioner struct {
	scheme Partition
	shards int
	// block is the nodes-per-shard quotum ⌈n/shards⌉ of PartitionBlock.
	block int
	// assign is PartitionLocality's precomputed node→shard table; nil for
	// the arithmetic schemes.
	assign []int32
}

// newPartitioner builds the node→shard assignment. nbrs exposes the
// topology's ascending adjacency to PartitionLocality; when it is nil (no
// graph is available at construction), locality falls back to block —
// which is the documented degradation, not an error.
func newPartitioner(scheme Partition, n, shards int, nbrs func(graph.NodeID) []graph.NodeID) partitioner {
	p := partitioner{scheme: scheme, shards: shards, block: (n + shards - 1) / shards}
	if scheme == PartitionLocality {
		if nbrs == nil {
			p.scheme = PartitionBlock
		} else {
			p.assign = localityAssign(n, shards, nbrs)
		}
	}
	return p
}

// shardOf returns u's shard. IDs past the construction-time node count
// hash like any other under PartitionHash and clamp onto the last shard
// under the other schemes, whose quotas they overflow.
func (p partitioner) shardOf(u graph.NodeID) int {
	switch {
	case p.assign != nil:
		if int(u) < len(p.assign) {
			return int(p.assign[u])
		}
	case p.scheme == PartitionHash:
		return int(u) % p.shards
	default:
		if s := int(u) / p.block; s < p.shards {
			return s
		}
	}
	return p.shards - 1
}

// localityAssign is PartitionLocality's deterministic BFS greedy growth:
// starting from the lowest-ID unassigned node, a breadth-first frontier
// grows the current shard until it reaches the ⌈n/shards⌉ quota, then the
// next shard continues from the same frontier, so each shard is a union of
// BFS layers — contiguous in the topology regardless of how IDs were
// assigned. Disconnected components are swept up by rescanning for the
// next unassigned seed. Neighbour order is the graph's ascending adjacency
// and ties always break toward lower IDs, so the assignment is a pure
// function of the topology. Every shard receives exactly the block quota
// (the last may run short), matching PartitionBlock's balance.
func localityAssign(n, shards int, nbrs func(graph.NodeID) []graph.NodeID) []int32 {
	const unseen, queued = -1, -2
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = unseen
	}
	quota := (n + shards - 1) / shards
	queue := make([]graph.NodeID, 0, n)
	head, seed := 0, 0
	cur, filled := int32(0), 0
	for assigned := 0; assigned < n; assigned++ {
		if head == len(queue) {
			for assign[seed] != unseen {
				seed++
			}
			assign[seed] = queued
			queue = append(queue, graph.NodeID(seed))
		}
		u := queue[head]
		head++
		if filled == quota {
			cur++
			filled = 0
		}
		assign[u] = cur
		filled++
		for _, v := range nbrs(u) {
			if assign[v] == unseen {
				assign[v] = queued
				queue = append(queue, v)
			}
		}
	}
	return assign
}
