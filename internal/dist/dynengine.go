package dist

import (
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

// dynShard is the dynamic plane's view of one runtime worker; it is the
// dynEnv the states it runs transmit through.
type dynShard struct {
	*worker[dynMsg]
	net *DynamicNetwork
}

// startShards builds the protocol states of the initial nodes, each
// knowing its neighbours' initial heights, and starts the shard runtime
// that runs them. The dynamic plane shares the static plane's batch-token
// quiescence; a control-plane message enters as a one-message batch whose
// token the control plane counts under mu (see injectLocked).
func (d *DynamicNetwork) startShards() {
	nsh := d.opts.Shards
	// One sink per shard plus the control plane; newShardRuntime hands the
	// shards theirs.
	d.opts.Observer.Attach(nsh)
	// The locality partitioner grows shards over the initial rows. Links
	// added later do not re-partition — assignments are fixed at
	// construction.
	part := newPartitioner(d.opts.Partition, d.n, nsh, d.adj.row)
	d.rt = newShardRuntime[dynMsg](part, &d.inflight, d.stop, &d.wg, d.opts.Observer)
	states := make([]*dynState, d.n)
	initial := make([][]*dynState, nsh)
	for u := range states {
		id := graph.NodeID(u)
		// The initial topology and heights are common knowledge at startup,
		// exactly as the sequential engines assume a globally known initial
		// orientation.
		states[u] = &dynState{net: d, id: id, h: d.heights[u], nbrs: d.viewsLocked(id)}
		sh := part.shardOf(id)
		initial[sh] = append(initial[sh], states[u])
	}
	d.states.Store(&states)
	for i, w := range d.rt.workers {
		s := &dynShard{worker: w, net: d}
		w.handle = s.process
		w.initial = func() {
			for _, st := range initial[i] {
				st.handle(s, dynMsg{Kind: dynStart, To: st.id})
			}
		}
	}
	d.rt.start()
}

// process is the dynamic plane's message handler: it runs m on its target
// state. Appends to the run-queue during the handler (same-shard
// transmissions, requeues) are fine: they join the next generation the
// runtime drains.
func (s *dynShard) process(m dynMsg) {
	(*s.net.states.Load())[m.To].handle(s, m)
}

// transmit sends m on behalf of st, routing height announcements through
// the fault injector: a dropped transmission is retransmitted immediately
// (the fair-loss bound terminates the loop, and announcements are
// idempotent, so no acks are needed), duplicate copies are routed back to
// back, and holdbacks ride in the message for the receiver to requeue.
// Control traffic bypasses the adversary: the control plane's view of the
// topology must stay authoritative.
func (s *dynShard) transmit(st *dynState, m dynMsg) {
	net := s.net
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
