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
// while the sending shard still holds its own — whether the batch leaves
// mid-cascade or at the end of it; and a shard retires the token it holds
// once the batch's local cascade has run dry and its outboxes are flushed.
// Intra-shard messages, fault-plane duplicates and holdback requeues ride
// on the token of the shard that runs them. The count therefore reaches
// zero only when no message exists anywhere and no shard is mid-cascade,
// and onZero runs at that crossing, in the goroutine whose retirement
// caused it.
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
	// unread is the sender's count of its batches the receiver has not yet
	// handled (worker.unread); the receiver lowers it once it has handled
	// msgs. nil for a control-plane batch, which no shard waits on.
	unread *atomic.Int32
}

// inbox is a shard's ingress: the batches other shards and the control
// plane have put for it, in arrival order. put never blocks, so no sender
// ever waits on a busy receiver — which rules out the send/receive cycles
// a bounded channel mesh between shards would allow — and the control
// plane may put while it holds its lock. wake holds at most one pending
// signal: every put leaves one pending after its append, and only the
// owner consumes it, before taking, so the owner never sleeps while a
// batch waits. A signal may find its batch already taken; the owner then
// takes nothing and waits again.
type inbox[M any] struct {
	mu   sync.Mutex
	q    []*batch[M]
	wake chan struct{}
}

// newInbox returns an empty inbox.
func newInbox[M any]() *inbox[M] { return &inbox[M]{wake: make(chan struct{}, 1)} }

// put appends b and wakes the owner.
func (in *inbox[M]) put(b *batch[M]) {
	in.mu.Lock()
	in.q = append(in.q, b)
	in.mu.Unlock()
	select {
	case in.wake <- struct{}{}:
	default: // a signal is already pending
	}
}

// take returns every waiting batch in arrival order and installs buf,
// emptied, as the new queue: the owner hands back the slice it took last
// time, so two backing arrays alternate and a take allocates nothing.
// Only the owner calls take, after receiving from wake.
func (in *inbox[M]) take(buf []*batch[M]) []*batch[M] {
	in.mu.Lock()
	q := in.q
	in.q = buf[:0]
	in.mu.Unlock()
	return q
}

// drainStopCheck is how many local deliveries a shard processes between
// polls of the stop channel. It bounds cancellation latency during long
// intra-shard cascades without paying a select per message, and it is the
// cadence of the mid-cascade flush: at each poll after a drain's first,
// the outboxes whose receivers have handled every earlier batch go out
// (worker.flush).
const drainStopCheck = 256

// shardRuntime is the worker pool both planes run on. Nodes are
// partitioned across a fixed set of shards; each shard owns its nodes'
// state outright and delivers intra-shard messages through a plain slice
// run-queue with no channel or lock on the path. Only cross-shard traffic
// touches the transport: it accumulates in per-destination outboxes and
// travels as pooled batches through each receiver's inbox, leaving while
// the sender's cascade still runs whenever the receiver has caught up, so
// the shards of one repair overlap. Each shard is one goroutine; one node
// per shard gives every node its own goroutine and inbox — per-node
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
	// It is allocated on its own because the Go runtime lists every pool
	// until two collections after its last use: a pool inside the runtime
	// would keep the finished run — workers, node table and all — alive
	// for one more collection.
	pool *sync.Pool
	// remote and batches are the transport counters behind Stats.Remote
	// and Stats.Batches: cross-shard messages and the batches carrying
	// them, folded in once per flush.
	remote, batches atomic.Int64
}

// worker is one shard of a shardRuntime. Its fields are owned by the shard
// goroutine, except the inbox, which senders put into, and the unread
// counts, which receivers lower.
type worker[M any] struct {
	rt *shardRuntime[M]
	id int
	// local is the run-queue of intra-shard deliveries, appended by route
	// and by the planes' requeues. drain runs it one generation at a time:
	// it swaps the queue out for spare, runs that generation in order while
	// the next one collects in local, and keeps the generation's array as
	// the next spare. Generation after generation is exactly FIFO, and the
	// two backing arrays stay as large as the widest generation, not the
	// whole cascade.
	local, spare []M
	// out[d] is the outbox of messages bound for shard d — a pooled batch,
	// taken lazily on first write and handed off whole at flush. pending
	// lists the shards whose outbox is non-empty, so a flush visits those
	// alone, not a table as long as the shard count.
	out     []*batch[M]
	pending []int
	// unread[d] counts the batches this shard has put for shard d that d
	// has not yet handled: raised at put, lowered by the receiver. It is
	// the clock of the mid-cascade flush, and zero at rest.
	unread []atomic.Int32
	// in receives the batches bound for this shard.
	in *inbox[M]
	// obs is this shard's telemetry sink, nil unless the plane's Observer
	// is armed — every hook below it is guarded by a nil check, so the
	// disarmed hot path costs one predictable branch.
	obs *obs.Shard
	// handle runs one delivered message; initial runs the shard's initial
	// acts, once, after which loop drops it. The plane sets both before
	// start.
	handle  func(M)
	initial func()
}

// newShardRuntime builds the workers of part's shards. Their tokens count
// into tok and they exit when stop is closed, each marking wg done.
func newShardRuntime[M any](part partitioner, tok *tokens, stop chan struct{}, wg *sync.WaitGroup, o *obs.Observer) *shardRuntime[M] {
	rt := &shardRuntime[M]{
		part:    part,
		workers: make([]*worker[M], part.shards),
		tokens:  tok,
		stop:    stop,
		wg:      wg,
	}
	rt.pool = &sync.Pool{New: func() any { return new(batch[M]) }}
	for i := range rt.workers {
		rt.workers[i] = &worker[M]{
			rt:     rt,
			id:     i,
			out:    make([]*batch[M], part.shards),
			unread: make([]atomic.Int32, part.shards),
			in:     newInbox[M](),
			obs:    o.Shard(i), // nil when no observer is armed
		}
	}
	return rt
}

// start hands every shard its start token and launches its loop.
func (rt *shardRuntime[M]) start() {
	rt.tokens.add(len(rt.workers))
	rt.wg.Add(len(rt.workers))
	for _, w := range rt.workers {
		go w.loop()
	}
}

// getBatch takes an empty batch from the pool; recycle returns a processed
// one. The interface conversion is free (batches travel as pointers), so
// neither direction allocates in the steady state.
func (rt *shardRuntime[M]) getBatch() *batch[M] { return rt.pool.Get().(*batch[M]) }

func (rt *shardRuntime[M]) recycle(b *batch[M]) {
	b.msgs = b.msgs[:0]
	b.unread = nil
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
			w.pending = append(w.pending, d)
		}
		b.msgs = append(b.msgs, m)
		return
	}
	w.local = append(w.local, m)
}

// loop is the shard goroutine: run the shard's initial acts, then serve
// incoming batches until shutdown. Each wake-up takes every waiting batch
// and runs them in arrival order (receive). The start token is retired
// after the initial cascade.
func (w *worker[M]) loop() {
	defer w.rt.wg.Done()
	// With an observer armed, the worker's wall clock is split into busy
	// (processing) and idle (waiting for a wake-up) spans around each
	// wait. One time.Now per wake-up, never per message.
	var mark time.Time
	if w.obs != nil {
		mark = time.Now()
	}
	w.initial()
	// Dropping initial lets what it captured, such as the static plane's
	// core.Init, be collected while the run goes on.
	w.initial = nil
	if !w.drain() {
		return
	}
	w.rt.tokens.done()
	var taken []*batch[M]
	for {
		if w.obs != nil {
			now := time.Now()
			w.obs.Busy(now.Sub(mark))
			mark = now
		}
		select {
		case <-w.rt.stop:
			return
		case <-w.in.wake:
		}
		taken = w.in.take(taken)
		if w.obs != nil {
			now := time.Now()
			w.obs.Idle(now.Sub(mark))
			mark = now
			w.obs.Mailbox(len(taken))
		}
		for _, b := range taken {
			if !w.receive(b) {
				return
			}
		}
		clear(taken) // the slice goes back to the inbox as its next queue
	}
}

// receive runs one batch taken from the inbox: its messages in order, then
// the local cascade they start. Once the messages are handled, the
// sender's unread count drops, so its next flush may send this shard a new
// batch, and the buffer goes back to the pool; the batch's token is
// retired after the drain. It reports false if the runtime stopped.
func (w *worker[M]) receive(b *batch[M]) bool {
	for _, m := range b.msgs {
		w.handle(m)
	}
	if b.unread != nil {
		b.unread.Add(-1)
	}
	w.rt.recycle(b)
	if !w.drain() {
		return false
	}
	w.rt.tokens.done()
	return true
}

// drain runs the local queue to exhaustion, one generation at a time —
// deliveries may enqueue further local messages, which form the next
// generation — and then flushes every outbox. It polls the stop channel
// before the first delivery and after every drainStopCheck deliveries,
// and at each of those later polls flushes the outboxes whose receivers
// have caught up, so a long cascade's cross-shard messages leave while it
// runs; a shorter one sends them all at its end. It reports false if the
// runtime stopped, in which case the shard goroutine must exit
// immediately.
func (w *worker[M]) drain() bool {
	for n := 0; len(w.local) > 0; {
		gen := w.local
		w.local = w.spare[:0]
		if w.obs != nil {
			w.obs.RunQueue(len(gen))
		}
		for _, m := range gen {
			if n%drainStopCheck == 0 {
				if w.rt.stopped() {
					return false
				}
				if n > 0 {
					w.flush(false)
				}
			}
			n++
			w.handle(m)
		}
		w.spare = gen
	}
	w.flush(true)
	return true
}

// flush sends non-empty outboxes to their destination shards, each as a
// single batch: every one of them when all is set (the end of a drain),
// otherwise only those whose receiver has handled every earlier batch from
// this shard. The clock keeps a busy receiver from being sent a stream of
// small batches — its messages collect into one larger batch instead — and
// one outbox leaving as one batch, in put order, keeps each receiver's
// messages in the order they were routed. The batch's in-flight token is
// added before the put, so the count can never reach zero while a batch
// exists; the receiving shard retires the token after fully processing
// the batch and returns the buffer to the pool. The transport counters
// fold in once per flush, never per message.
func (w *worker[M]) flush(all bool) {
	batches, msgs := 0, 0
	held := w.pending[:0]
	for _, d := range w.pending {
		if !all && w.unread[d].Load() != 0 {
			held = append(held, d)
			continue
		}
		b := w.out[d]
		w.rt.tokens.add(1)
		w.unread[d].Add(1)
		b.unread = &w.unread[d]
		batches++
		msgs += len(b.msgs)
		if w.obs != nil {
			w.obs.Batch(len(b.msgs))
		}
		w.rt.workers[d].in.put(b)
		w.out[d] = nil // the receiving shard owns the batch now
	}
	w.pending = held
	if batches > 0 {
		w.rt.batches.Add(int64(batches))
		w.rt.remote.Add(int64(msgs))
	}
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
