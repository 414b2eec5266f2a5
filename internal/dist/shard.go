package dist

import (
	"sync"
	"time"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

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
//
// Copies is the outbox coalescing count: the number of additional
// byte-identical transmissions riding piggyback on this entry (see
// shard.route). The receiving shard expands the message Copies+1 times, so
// every protocol- and ledger-visible effect of each squashed copy — the
// sequence-number dedup, the re-acknowledgement, the holdback requeues —
// happens exactly as if the copies had shipped individually; only the
// transport payload shrinks. Senders always route with Copies == 0.
type shardMsg struct {
	To     graph.NodeID
	Slot   int32
	Seq    uint32
	Kind   msgKind
	Hold   uint8
	Copies uint8
}

// maxCopies caps the coalescing count; a further identical transmission
// starts a fresh outbox entry. (Unreachable in practice: the injector caps
// duplication at maxExtra copies per judgment.)
const maxCopies = ^uint8(0)

// batch is a reusable buffer of cross-shard messages. Batches circulate
// through the runtime's pool: a sender takes one when it first writes to an
// outbox, and the receiving shard hands it back after processing, so the
// steady state allocates nothing per flush — the backing arrays are
// recycled at whatever capacity the traffic grew them to.
type batch struct {
	msgs []shardMsg
}

// drainStopCheck is how many local deliveries a shard processes between
// polls of the stop channel. It bounds cancellation latency during long
// intra-shard cascades without paying a select per message.
const drainStopCheck = 256

// partitioner maps node IDs to shards. Assignments are deterministic and
// total: every node of the topology belongs to exactly one shard in
// [0, shards).
type partitioner struct {
	scheme Partition
	shards int
	// block is the nodes-per-shard quotum ⌈n/shards⌉ of PartitionBlock.
	block int
	// assign is PartitionLocality's precomputed node→shard table; nil for
	// the arithmetic schemes. Node IDs beyond its length (added after
	// construction by a dynamic network) clamp onto the last shard.
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

func (p partitioner) shardOf(u graph.NodeID) int {
	switch {
	case p.assign != nil:
		if int(u) >= len(p.assign) {
			return p.shards - 1
		}
		return int(p.assign[u])
	case p.scheme == PartitionHash:
		return int(u) % p.shards
	default:
		return int(u) / p.block
	}
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

// shardEngine is the execution engine of RunWith: it partitions the nodes
// across a fixed set of shard goroutines. Each shard owns its nodes'
// protocol state outright, so intra-shard messages are delivered through a
// plain slice run-queue with no channel or lock on the path; only
// cross-shard traffic touches the transport, and it travels in
// per-destination batches drawn from a shared pool. Quiescence detection
// counts batches instead of messages: the in-flight tokens are one start
// token per shard plus one token per batch in transit, and a shard retires
// the token it holds only after its entire local cascade has run dry and
// its outboxes are flushed. Goroutine count is 2·shards (one loop plus one
// mailbox pump each). With one node per shard (Options.Shards ≥ n) every
// node gets its own goroutine and mailbox: per-node asynchrony.
type shardEngine struct {
	c      *runCore
	part   partitioner
	nodes  []runNode
	shards []*shard
	// pool recycles flushed batch buffers: senders take, receivers return.
	pool sync.Pool
}

func newShardEngine(c *runCore, in *core.Init, alg Algorithm, opts Options, shards int) *shardEngine {
	g := in.Graph()
	n := g.NumNodes()
	// The partitioner is built before the node table: newRunNodes packs the
	// bit views densely within one shard's nodes and word-aligns the
	// boundaries between shards, so it needs the ownership map up front.
	part := newPartitioner(opts.Partition, n, shards, g.Neighbors)
	e := &shardEngine{
		c:      c,
		part:   part,
		nodes:  newRunNodes(in, alg, c.inj != nil, part.shardOf),
		shards: make([]*shard, shards),
	}
	e.pool.New = func() any { return new(batch) }
	// Coalescing needs the per-shard dedup map only when repeats can occur
	// at all: on a reliable network a directed link carries at most one
	// transmission per flush window (a node re-reverses an edge only after
	// the neighbour reversed it back, which requires a round trip through
	// the unflushed outbox), so the map — and its per-message lookup — is
	// armed only under a fault adversary.
	coalesce := c.inj != nil && opts.Coalesce == CoalesceOn
	for i := range e.shards {
		e.shards[i] = &shard{
			eng: e,
			id:  i,
			out: make([]*batch, shards),
			tx:  make(chan *batch, opts.MailboxCap),
			rx:  make(chan *batch),
		}
		if coalesce {
			e.shards[i].coalesce = make(map[shardMsg]int32)
		}
		e.shards[i].obs = opts.Observer.Shard(i) // nil when no observer is armed
	}
	for u := 0; u < n; u++ {
		s := e.shards[e.part.shardOf(graph.NodeID(u))]
		s.nodes = append(s.nodes, &e.nodes[u])
	}
	return e
}

func (e *shardEngine) start() {
	for _, s := range e.shards {
		e.c.wg.Add(2)
		go func(s *shard) {
			defer e.c.wg.Done()
			mailbox(s.tx, s.rx, e.c.stop)
		}(s)
		go s.loop()
	}
}

// getBatch takes an empty batch from the pool; recycle returns a processed
// one. The interface conversion is free (batches travel as pointers), so
// neither direction allocates in the steady state.
func (e *shardEngine) getBatch() *batch { return e.pool.Get().(*batch) }

func (e *shardEngine) recycle(b *batch) {
	b.msgs = b.msgs[:0]
	e.pool.Put(b)
}

// shard is one worker of RunWith's engine. Its fields are owned by the
// shard goroutine; nodes' views are read by RunWith only after the
// WaitGroup drained.
type shard struct {
	eng *shardEngine
	id  int
	// nodes are the protocol nodes this shard owns.
	nodes []*runNode
	// local is the run-queue of intra-shard deliveries, appended by route
	// and consumed in FIFO order by drain. Its backing array is reused
	// across drains.
	local []shardMsg
	// out[d] is the outbox of messages bound for shard d — a pooled batch,
	// taken lazily on first write and handed off whole at flush.
	out []*batch
	// coalesce indexes the current flush window's outbox entries by their
	// content (Copies zeroed), so a byte-identical repeat increments the
	// existing entry's Copies instead of appending. The key's To field pins
	// each entry to exactly one destination batch, so one map covers all
	// outboxes; it is cleared when the window closes at flush. nil when
	// coalescing is off or no adversary is armed (reliable traffic cannot
	// repeat within a window; see newShardEngine).
	coalesce map[shardMsg]int32
	// remotePending and coalescedPending accumulate this window's
	// cross-shard transmission count (pre-coalescing) and squashed-copy
	// count; flush folds them into the shared atomics, so the hot path
	// never touches one.
	remotePending, coalescedPending int64
	// tx is the ingress channel of this shard's mailbox; rx the pump's
	// output.
	tx, rx chan *batch
	// obs is this shard's telemetry sink, nil unless Options.Observer is
	// armed — every hook below it is guarded by a nil check, so the
	// disarmed hot path costs one predictable branch.
	obs *obs.Shard
}

// announce records one step by a node of this shard. When trace recording
// is on, steps are appended to the shared trace under the core mutex before
// any of their messages moves (the run-queue and outboxes are drained only
// after announce returns), which is what makes the trace a legal
// sequential execution.
func (s *shard) announce(u graph.NodeID, targets int) {
	s.eng.c.record(u, targets)
	if s.obs != nil {
		s.obs.Step(u, targets)
	}
}

// route files one transmission by destination shard: same shard → local
// run-queue, otherwise → the destination shard's outbox. No token is taken
// here under either path: intra-shard messages are covered by the token
// the shard currently holds, and cross-shard batches take theirs at flush.
// Cross-shard transmissions are counted (Stats.Remote) before coalescing,
// so the count reflects what the protocol sent, not what the transport
// shipped; a transmission byte-identical to one already in the window's
// outbox is folded into that entry's Copies instead of appending
// (Stats.Coalesced), and the receiver expands it back, so the fault
// ledger — every ack, dedup and retransmission decision downstream of the
// squashed copy — is unchanged.
func (s *shard) route(m shardMsg) {
	if d := s.eng.part.shardOf(m.To); d != s.id {
		s.remotePending++
		b := s.out[d]
		if b == nil {
			b = s.eng.getBatch()
			s.out[d] = b
		}
		if s.coalesce != nil {
			if i, ok := s.coalesce[m]; ok && b.msgs[i].Copies < maxCopies {
				b.msgs[i].Copies++
				s.coalescedPending++
				return
			}
			s.coalesce[m] = int32(len(b.msgs))
		}
		b.msgs = append(b.msgs, m)
		return
	}
	s.local = append(s.local, m)
	if s.obs != nil {
		s.obs.RunQueue(len(s.local))
	}
}

// send routes one transmission through the fault injector (judgeSend):
// dropped payloads become loss notifications back to the sender — which is
// always a node this shard owns, so the nack lands in the local run-queue
// — and surviving copies (plus duplicates) are routed with their holdback.
// The existing batch-counting quiescence discipline already covers all of
// this traffic, so no extra tokens are needed.
func (s *shard) send(from graph.NodeID, fromSlot int32, to graph.NodeID, toSlot int32, seq uint32, attempt int32, kind msgKind) {
	f, dropped, notify := s.eng.c.judgeSend(from, to, seq, attempt, kind)
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
		s.route(m)
	}
}

// process resolves one transmission for delivery: a pending holdback sends
// the message to the back of the local run-queue (everything currently
// queued overtakes it — the logical-time delay; coalesced copies ride
// along, exactly as the individually-shipped copies would have been
// requeued back to back), everything else reaches the owning node. A
// coalesced message is delivered Copies+1 times, so the receiver's
// sequence-number dedup and per-copy re-acknowledgement behave exactly as
// if every copy had shipped.
func (s *shard) process(m shardMsg) {
	if m.Hold > 0 {
		m.Hold--
		s.local = append(s.local, m)
		return
	}
	nd := &s.eng.nodes[m.To]
	for c := uint8(0); ; c++ {
		if s.obs != nil && m.Kind == msgData {
			s.obs.Deliver(m.To, -1, int64(m.Seq))
		}
		if nd.rel != nil {
			nd.handle(s, m)
		} else {
			nd.receive(s, m.Slot)
		}
		if c >= m.Copies {
			return
		}
	}
}

// loop is the shard goroutine: run the initial acts of the owned nodes,
// then serve incoming batches until shutdown. The start token is retired
// after the initial cascade, each batch's token after that batch is fully
// processed — at which point the batch buffer goes back to the pool.
func (s *shard) loop() {
	defer s.eng.c.wg.Done()
	// With an observer armed, the worker's wall clock is split into busy
	// (processing) and idle (blocked on the mailbox) spans around each
	// select. One time.Now per batch, never per message.
	var mark time.Time
	if s.obs != nil {
		mark = time.Now()
	}
	for _, nd := range s.nodes {
		nd.act(s)
	}
	if !s.drain() {
		return
	}
	s.eng.c.done(1)
	for {
		if s.obs != nil {
			now := time.Now()
			s.obs.Busy(now.Sub(mark))
			mark = now
		}
		select {
		case <-s.eng.c.stop:
			return
		case b := <-s.rx:
			if s.obs != nil {
				now := time.Now()
				s.obs.Idle(now.Sub(mark))
				mark = now
				s.obs.Mailbox(len(s.tx) + 1) // the batch in hand plus ingress backlog
			}
			for _, m := range b.msgs {
				s.process(m)
			}
			s.eng.recycle(b)
			if !s.drain() {
				return
			}
			s.eng.c.done(1)
		}
	}
}

// drain runs the local queue to exhaustion — deliveries may enqueue
// further local messages, so the length is re-read every iteration — and
// then flushes the outboxes. It reports false if the run stopped, in which
// case the shard goroutine must exit immediately.
func (s *shard) drain() bool {
	for i := 0; i < len(s.local); i++ {
		if i%drainStopCheck == 0 && s.eng.c.stopped() {
			return false
		}
		s.process(s.local[i])
	}
	s.local = s.local[:0]
	return s.flush()
}

// flush sends every non-empty outbox to its destination shard as a single
// batch, closing the coalescing window. The batch's in-flight token is
// added before the send, so the counter can never reach zero while a batch
// exists; the receiving shard retires the token after fully processing the
// batch and returns the buffer to the pool. The window's pending remote
// and coalesced counts fold into the shared atomics here — once per flush,
// never per message.
func (s *shard) flush() bool {
	if s.remotePending > 0 {
		s.eng.c.remote.Add(s.remotePending)
		s.obs.Remote(s.remotePending)
		s.remotePending = 0
	}
	if s.coalescedPending > 0 {
		s.eng.c.coalesced.Add(s.coalescedPending)
		s.obs.Coalesced(s.coalescedPending)
		s.coalescedPending = 0
	}
	if len(s.coalesce) > 0 {
		clear(s.coalesce)
	}
	for d, b := range s.out {
		if b == nil {
			continue
		}
		s.eng.c.addBatches(1)
		if s.obs != nil {
			s.obs.Batch(len(b.msgs))
		}
		select {
		case s.eng.shards[d].tx <- b:
		case <-s.eng.c.stop:
			return false
		}
		s.out[d] = nil // the receiving shard owns the batch now
	}
	return true
}
