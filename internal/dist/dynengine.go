package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

// dynShardBackend is the execution engine of a DynamicNetwork: it runs the
// protocol of dynnode.go on a fixed worker pool. Nodes are partitioned
// across shards, each shard owns its nodes' states outright and processes
// its run-queue to exhaustion, and cross-shard messages travel in batches
// through per-shard elastic pumps. Unlike the static engine's batch tokens,
// every dynamic message carries its own in-flight token: control
// injections and fault-plane duplicates make per-batch accounting the
// wrong granularity here.
type dynShardBackend struct {
	net    *DynamicNetwork
	part   partitioner
	shards []*dynShard
	// states is published copy-on-write so AddNode never blocks senders;
	// shards reach new entries only via messages that causally follow the
	// publication.
	states atomic.Pointer[[]*dynState]
	pool   sync.Pool
}

type dynShard struct {
	be *dynShardBackend
	id int
	// local queues same-shard messages; it is processed to exhaustion
	// before the shard returns to its pump.
	local []dynMsg
	// out accumulates one outgoing batch per destination shard.
	out []*dynBatch
	// tx feeds the shard's elastic pump; rx is what the shard loop reads.
	tx, rx chan *dynBatch
	// retired counts handled tokens since the last retire flush.
	retired int
	// initial holds the construction-time states owned by this shard.
	initial []*dynState
	// obs is the shard's telemetry sink, nil unless DynOptions.Observer is
	// armed. Per-message hooks are guarded at the call site so the armed
	// check stays a single nil comparison on the hot path.
	obs *obs.Shard
}

type dynBatch struct {
	msgs []dynMsg
}

func newDynShardBackend(net *DynamicNetwork, states []*dynState) *dynShardBackend {
	nsh := net.opts.Shards
	// adjCache is rebuilt before backend construction, so the locality
	// partitioner can grow shards over the initial topology. Links added
	// later do not re-partition — assignments are fixed at construction.
	b := &dynShardBackend{
		net: net,
		part: newPartitioner(net.opts.Partition, len(states), nsh,
			func(u graph.NodeID) []graph.NodeID { return net.adjCache[u] }),
	}
	b.pool.New = func() any { return &dynBatch{} }
	b.states.Store(&states)
	b.shards = make([]*dynShard, nsh)
	for i := range b.shards {
		b.shards[i] = &dynShard{
			be:  b,
			id:  i,
			out: make([]*dynBatch, nsh),
			tx:  make(chan *dynBatch, defaultMailboxCap),
			rx:  make(chan *dynBatch),
			obs: net.opts.Observer.Shard(i), // nil when no observer is armed
		}
	}
	for _, st := range states {
		sh := b.shards[b.shardOf(st.id)]
		sh.initial = append(sh.initial, st)
	}
	return b
}

// shardOf routes node IDs to shards. IDs added after construction overflow
// a block partitioner's quota; they clamp onto the last shard.
func (b *dynShardBackend) shardOf(u graph.NodeID) int {
	s := b.part.shardOf(u)
	if s >= len(b.shards) {
		s = len(b.shards) - 1
	}
	return s
}

// start launches the shards for the construction-time nodes. Each node's
// start token was accounted in the network constructor.
func (b *dynShardBackend) start() {
	for _, sh := range b.shards {
		b.net.wg.Add(2)
		go func(sh *dynShard) {
			defer b.net.wg.Done()
			mailbox(sh.tx, sh.rx, b.net.stop)
		}(sh)
		go sh.loop()
	}
}

// addNode attaches a node added at runtime and accounts its start token.
func (b *dynShardBackend) addNode(st *dynState) {
	old := *b.states.Load()
	states := make([]*dynState, len(old)+1)
	copy(states, old)
	states[st.id] = st
	b.states.Store(&states)
	b.net.mu.Lock()
	b.net.inflight++ // the new node's start token
	b.net.mu.Unlock()
	b.inject(dynMsg{Kind: dynStart, To: st.id})
}

func (b *dynShardBackend) getBatch() *dynBatch {
	nb := b.pool.Get().(*dynBatch)
	nb.msgs = nb.msgs[:0]
	return nb
}

// inject delivers one control-plane message whose token the caller
// accounted.
func (b *dynShardBackend) inject(m dynMsg) {
	nb := b.getBatch()
	nb.msgs = append(nb.msgs, m)
	sh := b.shards[b.shardOf(m.To)]
	select {
	case sh.tx <- nb:
	case <-b.net.stop:
	}
}

func (s *dynShard) loop() {
	b := s.be
	defer b.net.wg.Done()
	// mark anchors the busy/idle span accounting: one clock read per batch,
	// never per message, so the armed observer stays off the hot path.
	var mark time.Time
	if s.obs != nil {
		mark = time.Now()
	}
	for _, st := range s.initial {
		if st.handle(s, dynMsg{Kind: dynStart, To: st.id}) {
			s.retired++
		}
	}
	if !s.drain() {
		return
	}
	for {
		if s.obs != nil {
			now := time.Now()
			s.obs.Busy(now.Sub(mark))
			mark = now
		}
		select {
		case <-b.net.stop:
			return
		case nb := <-s.rx:
			if s.obs != nil {
				now := time.Now()
				s.obs.Idle(now.Sub(mark))
				mark = now
				s.obs.Mailbox(len(s.tx) + 1)
			}
			for _, m := range nb.msgs {
				s.process(m)
			}
			b.pool.Put(nb)
			if !s.drain() {
				return
			}
		}
	}
}

// process runs one message on its target state. Appends to s.local during
// the handler (same-shard transmissions, requeues) are fine: drain
// iterates by index.
func (s *dynShard) process(m dynMsg) {
	sts := *s.be.states.Load()
	st := sts[m.To]
	if st.handle(s, m) {
		s.retired++
	}
}

// drain processes the local run-queue to exhaustion, flushes the outboxes
// and retires the handled tokens. It returns false when the network
// stopped mid-drain.
func (s *dynShard) drain() bool {
	for i := 0; i < len(s.local); i++ {
		if i%drainStopCheck == drainStopCheck-1 && s.be.net.isStopped() {
			return false
		}
		s.process(s.local[i])
	}
	s.local = s.local[:0]
	for d, nb := range s.out {
		if nb == nil {
			continue
		}
		s.out[d] = nil
		if s.obs != nil {
			s.obs.Batch(len(nb.msgs))
			s.obs.Remote(int64(len(nb.msgs)))
		}
		select {
		case s.be.shards[d].tx <- nb:
		case <-s.be.net.stop:
			return false
		}
	}
	if s.retired > 0 {
		s.be.net.retire(s.retired)
		s.retired = 0
	}
	return true
}

// transmit and requeue implement dynEnv for the shard that is currently
// running a node. Same-shard traffic goes straight onto the run-queue;
// cross-shard traffic accumulates into the per-destination batch flushed
// at the end of the drain.
func (s *dynShard) transmit(st *dynState, m dynMsg) {
	s.be.net.fanout(st, m, s.route, s.obs)
}

func (s *dynShard) requeue(st *dynState, m dynMsg) {
	s.local = append(s.local, m)
}

func (s *dynShard) sink() *obs.Shard { return s.obs }

func (s *dynShard) route(m dynMsg) {
	d := s.be.shardOf(m.To)
	if d == s.id {
		s.local = append(s.local, m)
		if s.obs != nil {
			s.obs.RunQueue(len(s.local))
		}
		return
	}
	nb := s.out[d]
	if nb == nil {
		nb = s.be.getBatch()
		s.out[d] = nb
	}
	nb.msgs = append(nb.msgs, m)
}
