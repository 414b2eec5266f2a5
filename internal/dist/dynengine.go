package dist

import (
	"sync/atomic"

	"linkreversal/internal/faults"
	"linkreversal/internal/obs"
)

// dynShardBackend is the execution engine of a DynamicNetwork: the
// protocol of dynnode.go on a shardRuntime of dynMsg. It shares the static
// plane's batch-token quiescence; a control-plane message enters as a
// one-message batch whose token the control plane counted under mu.
type dynShardBackend struct {
	net *DynamicNetwork
	rt  *shardRuntime[dynMsg]
	// states is published copy-on-write so AddNode never blocks senders;
	// shards reach new entries only via messages that causally follow the
	// publication.
	states atomic.Pointer[[]*dynState]
}

// dynShard is the dynamic plane's view of one runtime worker; it is the
// dynEnv the states it runs transmit through.
type dynShard struct {
	*worker[dynMsg]
	be *dynShardBackend
}

func newDynShardBackend(net *DynamicNetwork, states []*dynState) *dynShardBackend {
	nsh := net.opts.Shards
	// The locality partitioner grows shards over the initial rows. Links
	// added later do not re-partition — assignments are fixed at
	// construction.
	part := newPartitioner(net.opts.Partition, len(states), nsh, net.adj.row)
	b := &dynShardBackend{
		net: net,
		rt:  newShardRuntime[dynMsg](part, defaultMailboxCap, &net.inflight, net.stop, &net.wg, net.opts.Observer),
	}
	b.states.Store(&states)
	initial := make([][]*dynState, nsh)
	for _, st := range states {
		d := part.shardOf(st.id)
		initial[d] = append(initial[d], st)
	}
	for i, w := range b.rt.workers {
		s := &dynShard{worker: w, be: b}
		w.handle = s.process
		w.initial = func() {
			for _, st := range initial[i] {
				st.handle(s, dynMsg{Kind: dynStart, To: st.id})
			}
		}
	}
	return b
}

// addNode attaches a node added at runtime and accounts its start token.
func (b *dynShardBackend) addNode(st *dynState) {
	old := *b.states.Load()
	states := make([]*dynState, len(old)+1)
	copy(states, old)
	states[st.id] = st
	b.states.Store(&states)
	b.net.mu.Lock()
	b.net.inflight.add(1) // the new node's start token
	b.net.mu.Unlock()
	b.inject(dynMsg{Kind: dynStart, To: st.id})
}

// inject delivers one control-plane message to the shard owning m.To as a
// one-message batch, whose token the caller counted under mu.
func (b *dynShardBackend) inject(m dynMsg) {
	nb := b.rt.getBatch()
	nb.msgs = append(nb.msgs, m)
	select {
	case b.rt.workers[b.rt.part.shardOf(m.To)].tx <- nb:
	case <-b.rt.stop:
	}
}

// process is the dynamic plane's message handler: it runs m on its target
// state. Appends to the run-queue during the handler (same-shard
// transmissions, requeues) are fine: the runtime drains by index.
func (s *dynShard) process(m dynMsg) {
	(*s.be.states.Load())[m.To].handle(s, m)
}

// transmit sends m on behalf of st, routing height announcements through
// the fault injector: a dropped transmission is retransmitted immediately
// (the fair-loss bound terminates the loop, and announcements are
// idempotent, so no acks are needed), duplicate copies are routed back to
// back, and holdbacks ride in the message for the receiver to requeue.
// Control traffic bypasses the adversary: the control plane's view of the
// topology must stay authoritative.
func (s *dynShard) transmit(st *dynState, m dynMsg) {
	net := s.be.net
	if net.inj == nil || m.Kind != dynHeight {
		s.route(m.To, m)
		return
	}
	st.seq++
	link := faults.Link{From: st.id, To: m.To}
	for attempt := 0; ; attempt++ {
		f := net.inj.Judge(link, faults.Msg{Seq: st.seq, Attempt: attempt})
		if f.Drop {
			net.retrans.Add(1)
			s.obs.Retransmit(st.id, m.To, int64(st.seq))
			continue
		}
		m.Hold = uint8(f.Hold)
		for c := 0; c <= f.Extra; c++ {
			s.route(m.To, m)
		}
		return
	}
}

// requeue puts m at the back of the run-queue, where it rides on the
// shard's current token.
func (s *dynShard) requeue(st *dynState, m dynMsg) {
	s.local = append(s.local, m)
}

func (s *dynShard) sink() *obs.Shard { return s.obs }
