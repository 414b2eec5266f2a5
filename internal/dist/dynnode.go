package dist

import (
	"math"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

// dynEnv is the transport a dynState runs on: the shard that owns the node,
// with its run-queue and cross-shard batches. It is an interface so the
// protocol logic in this file can be driven by a stand-in transport in
// tests.
type dynEnv interface {
	// transmit sends m (with m.To set) on behalf of st, routing height
	// announcements through the fault plane.
	transmit(st *dynState, m dynMsg)
	// requeue puts m at the back of st's own delivery queue — the
	// receiver-side holdback of the fault adversary.
	requeue(st *dynState, m dynMsg)
	// sink returns the executor's telemetry sink, nil unless
	// DynOptions.Observer is armed. The obs.Shard methods are no-ops on a
	// nil receiver, so protocol code calls them unconditionally.
	sink() *obs.Shard
}

// dynState is the protocol state of one DynamicNetwork participant. It is
// owned by exactly one shard (the one its ID maps to); net.mu guards only
// the shared mirrors it updates at commit time.
type dynState struct {
	net *DynamicNetwork
	id  graph.NodeID
	h   DynHeight
	// gen is this node's current height generation; it is bumped only by
	// control-plane resets, whose dynReset message carries the new value.
	gen uint32
	// nbrs holds the current live neighbours and the freshest height heard
	// from each, sorted by ID.
	nbrs viewList
	// pending buffers heights that arrived from nodes not currently
	// neighbours (late or early deliveries around link churn), sorted by
	// ID; they are merged back if the link (re)appears. Within a generation
	// heights are monotone, so a stale entry is still a valid lower bound.
	pending viewList
	// parked mirrors net.suspended[id] locally so the per-message fast
	// path (not a sink, never suspended) needs no lock.
	parked bool
	// detected is set when this node, as the definer of a reference level,
	// saw its own reflection from every neighbour — the TORA partition
	// signal. It stops acting until a control-plane reset revives it.
	detected bool
	// crashed marks a crash-stop window: all protocol traffic is dropped.
	crashed bool
	// dead marks a removed node; it ignores everything forever.
	dead bool
	// definedTau is the τ of the last level this node defined (0 = none);
	// detection requires seeing the reflection of exactly that level.
	definedTau uint32
	// seq counts this node's transmissions, giving the fault injector
	// distinct per-transmission coordinates.
	seq uint64
}

// viewSink reports whether this node believes it is an enabled sink: every
// live neighbour's height is known and lexicographically above its own.
func (st *dynState) viewSink() bool {
	if st.id == st.net.dest || len(st.nbrs) == 0 {
		return false
	}
	for _, view := range st.nbrs {
		if !view.known || view.h.Less(st.h) || view.h == st.h {
			return false
		}
	}
	return true
}

// levelView returns the maximum reference level among the neighbour views
// and whether every view carries it. Callers ensure nbrs is non-empty.
func (st *dynState) levelView() (RefLevel, bool) {
	lvl := st.nbrs[0].h.Lvl
	same := true
	for _, v := range st.nbrs[1:] {
		switch c := v.h.Lvl.Compare(lvl); {
		case c > 0:
			lvl = v.h.Lvl
			same = false
		case c < 0:
			same = false
		}
	}
	return lvl, same
}

// unpark clears a ceiling suspension after the node stopped being a sink.
func (st *dynState) unpark() {
	if !st.parked {
		return
	}
	st.parked = false
	st.net.mu.Lock()
	st.net.suspended.unmark(st.id)
	st.net.mu.Unlock()
}

// commit adopts newH, updates the shared mirrors and counters under mu, and
// announces the new height to every neighbour. It returns false — leaving
// the height unchanged and the node parked — when newH exceeds the runaway
// backstop ceiling (|A| for zero-level GB growth, |B| for reference-level δ
// descent); AwaitQuiescence validates parked nodes against the real
// topology and either reports the partition or raises the ceiling and
// resumes them.
func (st *dynState) commit(env dynEnv, newH DynHeight) bool {
	net := st.net
	flips := 0
	for _, view := range st.nbrs {
		if view.h.Less(newH) {
			flips++
		}
	}
	net.mu.Lock()
	if newH.H.A > net.ceiling || -newH.H.B > net.ceilingB {
		// A node removed while it runs keeps running until its dynRemove
		// arrives; it must not mark itself, or the mark outlives it.
		if !net.dead.Test(int(st.id)) {
			net.suspended.mark(st.id)
		}
		net.mu.Unlock()
		st.parked = true
		return false
	}
	st.h = newH
	net.ownHeightsLocked()
	net.heights[st.id] = newH
	if newH.H.A > net.maxA {
		net.maxA = newH.H.A
	}
	if newH.H.B < net.minB {
		net.minB = newH.H.B
	}
	net.suspended.unmark(st.id)
	net.stats.Steps++
	net.stats.TotalReversals += flips
	net.stats.Messages += len(st.nbrs)
	net.mu.Unlock()
	env.sink().Step(st.id, flips)
	st.parked = false
	for _, view := range st.nbrs {
		env.transmit(st, dynMsg{Kind: dynHeight, To: view.id, Peer: st.id, H: newH, Gen: st.gen})
	}
	return true
}

// generate defines a fresh reference level — the TORA response to losing
// the last route to a failure. The definer jumps to (τ, self, 0) with δ=0,
// putting itself above the whole zero level and every older level, so the
// wave of propagations that follows carries the search away from it.
func (st *dynState) generate(env dynEnv) {
	tau := st.net.tau.Add(1)
	st.definedTau = tau
	st.commit(env, DynHeight{
		Lvl: RefLevel{Tau: tau, Oid: st.id},
		H:   core.Height{ID: st.id},
	})
}

// act steps while this node is a view-sink, dispatching on the TORA case
// analysis of the neighbours' reference levels; ordinary Gafni–Bertsekas
// partial reversal is the all-zero-level case. It returns with the node's
// suspension mirror up to date.
func (st *dynState) act(env dynEnv) {
	net := st.net
	for {
		if st.dead || st.crashed || st.detected {
			return
		}
		if !st.viewSink() {
			st.unpark()
			return
		}
		lvl, same := st.levelView()
		switch {
		case same && lvl.IsZero():
			// Gafni–Bertsekas pair rule.
			h := core.PairStep(st.h.H, len(st.nbrs), func(i int) core.Height { return st.nbrs[i].h.H })
			if !st.commit(env, DynHeight{H: h}) {
				return
			}
		case same && !lvl.R && lvl.Oid != st.id:
			// Reflect: the propagation wave of someone else's level reached
			// a dead end here; turn it around.
			if !st.commit(env, DynHeight{
				Lvl: RefLevel{Tau: lvl.Tau, Oid: lvl.Oid, R: true},
				H:   core.Height{ID: st.id},
			}) {
				return
			}
			env.sink().Note(obs.EvReflect, st.id, lvl.Oid, int64(lvl.Tau))
		case same && lvl.R && lvl.Oid == st.id && lvl.Tau == st.definedTau:
			// Detect: our own level came back reflected from every
			// neighbour — no route out of this component exists. Park until
			// a control-plane reset revives the component.
			st.detected = true
			net.mu.Lock()
			// As in commit, a removed node must not mark itself.
			if !net.dead.Test(int(st.id)) {
				net.detected.mark(st.id)
			}
			net.mu.Unlock()
			env.sink().Note(obs.EvPartitionDetect, st.id, lvl.Oid, int64(lvl.Tau))
			return
		case same:
			// Surrounded by a reflected level we did not define (its
			// definer may be gone, or it is a stale incarnation of ours):
			// define a fresh level, restarting the search.
			st.generate(env)
		default:
			// Mixed levels: propagate the maximum, sitting just below its
			// lowest representative so the wave keeps moving.
			minB := math.MaxInt
			for _, v := range st.nbrs {
				if v.h.Lvl == lvl && v.h.H.B < minB {
					minB = v.h.H.B
				}
			}
			if !st.commit(env, DynHeight{
				Lvl: lvl,
				H:   core.Height{A: 0, B: minB - 1, ID: st.id},
			}) {
				return
			}
		}
	}
}

// announceAll sends this node's current height to every neighbour,
// accounting the messages under mu first.
func (st *dynState) announceAll(env dynEnv) {
	if len(st.nbrs) == 0 {
		return
	}
	net := st.net
	net.mu.Lock()
	net.stats.Messages += len(st.nbrs)
	net.mu.Unlock()
	for _, view := range st.nbrs {
		env.transmit(st, dynMsg{Kind: dynHeight, To: view.id, Peer: st.id, H: st.h, Gen: st.gen})
	}
}

// introduce announces this node's height to one peer (the link-up
// handshake).
func (st *dynState) introduce(env dynEnv, peer graph.NodeID) {
	net := st.net
	net.mu.Lock()
	net.stats.Messages++
	net.mu.Unlock()
	env.transmit(st, dynMsg{Kind: dynHeight, To: peer, Peer: st.id, H: st.h, Gen: st.gen})
}

// linkDown removes the view of a failed neighbour, demoting it into
// pending — the stored height is still a valid per-generation lower bound,
// so a link flap resumes from it instead of relearning from scratch — and
// runs the TORA generate case: a node whose last outgoing link was lost to
// the failure defines a new reference level instead of grinding through
// zero-level reversals.
func (st *dynState) linkDown(env dynEnv, peer graph.NodeID) {
	v, ok := st.nbrs.remove(peer)
	if !ok {
		return
	}
	if v.known {
		st.pending.put(v)
	}
	if st.id != st.net.dest && len(st.nbrs) > 0 &&
		v.known && v.h.Less(st.h) && st.viewSink() {
		st.generate(env)
	}
}

// handle processes one message and re-evaluates the node's protocol state.
// A message with a pending holdback is requeued instead.
func (st *dynState) handle(env dynEnv, m dynMsg) {
	if m.Hold > 0 {
		m.Hold--
		env.requeue(st, m)
		return
	}
	if st.dead {
		return
	}
	switch m.Kind {
	case dynCrash:
		st.crashed = true
		return
	case dynRemove:
		st.dead = true
		st.nbrs = nil
		st.pending = nil
		st.parked = false
		st.detected = false
		return
	case dynRecover:
		st.crashed = false
		st.nbrs = append(st.nbrs[:0], m.Views...)
		st.pending = st.pending[:0]
		st.announceAll(env)
	case dynReset:
		// Control-plane height erasure: adopt the authoritative height,
		// generation and neighbourhood wholesale. The generation bump makes
		// every older view of this node stale, so the lowered height cannot
		// be overridden by leftovers. A crashed node adopts the state (the
		// control plane owns it) but stays silent until it recovers.
		st.h = m.H
		st.gen = m.Gen
		st.definedTau = 0
		st.detected = false
		st.parked = false
		st.nbrs = append(st.nbrs[:0], m.Views...)
		st.pending = st.pending[:0]
		if st.crashed {
			return
		}
		st.announceAll(env)
	default:
		if st.crashed {
			// Crash-stop: protocol traffic is dropped on the floor.
			return
		}
		switch m.Kind {
		case dynStart, dynPoke:
			// Nothing to record; act below re-evaluates.
		case dynHeight:
			if s := env.sink(); s != nil {
				s.Deliver(st.id, m.Peer, int64(m.Gen))
			}
			if i, ok := st.nbrs.search(m.Peer); ok {
				st.nbrs[i] = mergeView(st.nbrs[i], m.H, m.Gen)
			} else if i, ok := st.pending.search(m.Peer); ok {
				st.pending[i] = mergeView(st.pending[i], m.H, m.Gen)
			} else {
				st.pending.put(nbrView{id: m.Peer, h: m.H, gen: m.Gen, known: true})
			}
		case dynLinkUp:
			env.sink().Note(obs.EvLinkUp, st.id, m.Peer, 0)
			if _, ok := st.nbrs.search(m.Peer); !ok {
				view := nbrView{id: m.Peer}
				if p, ok := st.pending.remove(m.Peer); ok {
					view = p
				}
				st.nbrs.put(view)
			}
			// Introduce ourselves so the peer can orient the new link.
			st.introduce(env, m.Peer)
		case dynLinkDown:
			env.sink().Note(obs.EvLinkDown, st.id, m.Peer, 0)
			st.linkDown(env, m.Peer)
		}
	}
	st.act(env)
}
