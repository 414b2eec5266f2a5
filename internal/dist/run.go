package dist

import (
	"context"
	"fmt"
	"sort"

	"linkreversal/internal/bitset"
	"linkreversal/internal/core"
	"linkreversal/internal/graph"
)

// msgKind distinguishes the transmissions of the reliable-delivery layer.
// On a reliable network (no adversary) only msgData ever travels.
type msgKind uint8

const (
	// msgData is a reversal announcement: the neighbour at Slot reversed
	// the shared edge, which now points toward the receiver.
	msgData msgKind = iota
	// msgAck acknowledges receipt of the data payload Seq on the link at
	// Slot; it lets the sender clear its unacked state and suppresses
	// retransmissions of payloads whose other copies were dropped.
	msgAck
	// msgNack is a loss notification from the network layer to the
	// *sender* of a dropped payload — the event-driven stand-in for a
	// retransmission timeout (the adversary controls all timing, so an RTO
	// that fires exactly when the payload was lost is simply the adversary
	// scheduling the timer adversarially tight). Nacks travel reliably:
	// they model a local timer, not a network message.
	msgNack
)

// runNode is the per-node protocol state. All views are slot-indexed
// windows parallel to nbrs (no maps), carved from backing arrays shared
// across the whole topology, so a million-node run costs a constant number
// of allocations rather than O(n) maps. The boolean views (incoming, list,
// acked) are bit-packed — one bit per edge endpoint instead of one byte —
// which is what makes 10M-node state fit cache and memory; packing is dense
// within one shard's nodes and word-aligned at shard boundaries, so no two
// shard goroutines ever write the same word. The protocol rules below hand
// their messages to the owning shard passed to act/receive/handle.
type runNode struct {
	id     graph.NodeID
	alg    Algorithm
	isDest bool
	// nbrs is the fixed neighbourhood in G, ascending (shared with the
	// graph's adjacency storage).
	nbrs []graph.NodeID
	// peerSlot[i] is this node's slot in nbrs[i]'s neighbourhood: the Slot a
	// shardMsg to nbrs[i] must carry so the receiver locates the shared
	// edge in O(1).
	peerSlot []int32
	// incoming bit i is this node's view of edge {id, nbrs[i]}: set if it
	// points toward id. Views marked incoming are always truthful; views
	// marked outgoing may lag behind an undelivered shardMsg. The sink
	// check is a word-at-a-time AllSet scan, so no incremental counter is
	// needed.
	incoming bitset.View
	// list is PR's list[u] as a slot-indexed bitmap parallel to nbrs:
	// neighbours that reversed toward this node since its last step. Empty
	// (zero View) for the other variants; nd.alg discriminates.
	list bitset.View
	// count is NewPR's step counter; its parity selects the reversal set.
	count int
	// initIn and initOut are NewPR's immutable initial neighbour sets as
	// slot indices into nbrs.
	initIn, initOut []int32
	// rel is the sequence-numbered reliable-delivery state, armed only when
	// a fault adversary is configured; nil keeps the exact pre-fault path.
	rel *relState
}

// relState is a node's half of the ack/retransmit protocol, slot-indexed
// like every other view. The protocol keeps at most one unacknowledged
// payload per directed link: a node reverses the same edge again only
// after the neighbour reversed it back, which requires the neighbour to
// have received the previous payload — so a single (seq, acked, retries)
// cell per link suffices on the send side, and a single high-water mark
// deduplicates on the receive side.
type relState struct {
	// sendSeq[i] is the latest payload sequence number sent to nbrs[i]
	// (1-based; 0 = nothing sent yet).
	sendSeq []uint32
	// recvSeq[i] is the highest payload sequence number received from
	// nbrs[i]; stale arrivals (duplicates, late retransmissions) are
	// re-acknowledged but not re-applied, which is what keeps a late copy
	// from resurrecting an already-reversed view.
	recvSeq []uint32
	// acked bit i reports whether sendSeq[i] has been acknowledged; it
	// suppresses retransmissions when one copy of a duplicated payload was
	// delivered and another dropped.
	acked bitset.View
	// retries[i] counts retransmissions of sendSeq[i]; it is the Attempt
	// coordinate of the fault injector's decisions, capped by the
	// fair-loss retry budget.
	retries []int32
}

// slotOf returns the index of v in the ascending neighbour list nbrs. It is
// used only off the hot path (construction and final reassembly); messages
// carry precomputed slots.
func slotOf(nbrs []graph.NodeID, v graph.NodeID) int32 {
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	if i == len(nbrs) || nbrs[i] != v {
		panic(fmt.Sprintf("dist: %d is not a neighbour", v))
	}
	return int32(i)
}

// newRunNodes builds the flat node-state table: one runNode per node, with
// every per-node view sliced out of a handful of topology-sized backing
// arrays. The peer-slot table is derived from the core.Init adjacency once,
// here, which is what lets every delivered message skip the neighbour
// lookup forever after. With reliable set (a fault adversary is armed),
// each node additionally gets its slot-indexed ack/retransmit state, carved
// from more topology-sized arrays.
//
// The boolean views are packed one bit per edge endpoint into shared word
// arrays. owner maps a node to the shard that runs it; consecutive nodes
// with the same owner pack densely into shared words, and the carver
// inserts word-alignment padding wherever the owner changes, so two shards
// never write the same backing word — the shards need no synchronization
// on the views.
func newRunNodes(in *core.Init, alg Algorithm, reliable bool, owner func(graph.NodeID) int) []runNode {
	g := in.Graph()
	n := g.NumNodes()
	dest := in.Destination()
	initial := in.InitialOrientation()
	totalDeg := 2 * g.NumEdges()

	// First pass: lay out the bit offsets, padding at ownership changes.
	bitOffs := make([]int, n+1)
	bitOff := 0
	for u := 0; u < n; u++ {
		if u > 0 && owner(graph.NodeID(u)) != owner(graph.NodeID(u-1)) {
			bitOff = bitset.Align(bitOff)
		}
		bitOffs[u] = bitOff
		bitOff += len(g.Neighbors(graph.NodeID(u)))
	}
	bitOffs[n] = bitOff
	words := bitset.Words(bitOff)

	nodes := make([]runNode, n)
	flatSlots := make([]int32, totalDeg)
	incomingWords := make([]uint64, words)
	var listWords []uint64
	var flatParity []int32
	if alg == PartialReversal {
		listWords = make([]uint64, words)
	}
	if alg == StaticPartialReversal {
		flatParity = make([]int32, totalDeg)
	}
	var flatSendSeq, flatRecvSeq []uint32
	var ackedWords []uint64
	var flatRetries []int32
	var rels []relState
	if reliable {
		flatSendSeq = make([]uint32, totalDeg)
		flatRecvSeq = make([]uint32, totalDeg)
		ackedWords = make([]uint64, words)
		flatRetries = make([]int32, totalDeg)
		rels = make([]relState, n)
	}

	off := 0
	for u := 0; u < n; u++ {
		id := graph.NodeID(u)
		nbrs := g.Neighbors(id)
		deg := len(nbrs)
		nd := &nodes[u]
		nd.id = id
		nd.alg = alg
		nd.isDest = id == dest
		nd.nbrs = nbrs
		nd.peerSlot = flatSlots[off : off+deg : off+deg]
		nd.incoming = bitset.Slice(incomingWords, bitOffs[u], deg)
		for i, v := range nbrs {
			nd.peerSlot[i] = slotOf(g.Neighbors(v), id)
			if initial.PointsTo(v, id) {
				nd.incoming.Set(i)
			}
		}
		switch alg {
		case PartialReversal:
			nd.list = bitset.Slice(listWords, bitOffs[u], deg)
		case StaticPartialReversal:
			in0 := in.InNbrs(id)
			parity := flatParity[off : off+deg : off+deg]
			for i, v := range in0 {
				parity[i] = slotOf(nbrs, v)
			}
			for i, v := range in.OutNbrs(id) {
				parity[len(in0)+i] = slotOf(nbrs, v)
			}
			nd.initIn = parity[:len(in0)]
			nd.initOut = parity[len(in0):]
		}
		if reliable {
			rels[u] = relState{
				sendSeq: flatSendSeq[off : off+deg : off+deg],
				recvSeq: flatRecvSeq[off : off+deg : off+deg],
				acked:   bitset.Slice(ackedWords, bitOffs[u], deg),
				retries: flatRetries[off : off+deg : off+deg],
			}
			nd.rel = &rels[u]
		}
		off += deg
	}
	return nodes
}

// viewSink reports whether this node believes it is an enabled sink: not
// the destination, at least one neighbour, and every incident edge
// incoming in its view. The packed view makes this a word-at-a-time scan
// — ⌈deg/64⌉ compares instead of a per-slot loop or a maintained counter.
func (nd *runNode) viewSink() bool {
	return !nd.isDest && len(nd.nbrs) > 0 && nd.incoming.AllSet()
}

// incomingTo returns this node's view of the edge to neighbour v. Used only
// for the final reassembly after quiescence.
func (nd *runNode) incomingTo(v graph.NodeID) bool {
	return nd.incoming.Test(int(slotOf(nd.nbrs, v)))
}

// step performs one reversal step, selecting the reversed slots by the
// variant's rule. The caller has checked viewSink, so every incident edge
// truly points toward this node and the reversals below are valid automaton
// transitions. The step is announced before any of its messages is handed
// to the shard, and all view flags are cleared before the first send — the
// same step atomicity the map-based implementation had.
func (nd *runNode) step(s *shard) {
	switch nd.alg {
	case FullReversal:
		s.announce(nd.id, len(nd.nbrs))
		nd.incoming.ClearAll()
		for i := range nd.nbrs {
			nd.sendReverse(s, int32(i))
		}
	case PartialReversal:
		listCount := nd.list.Count()
		full := listCount == len(nd.nbrs)
		targets := len(nd.nbrs) - listCount
		if full {
			targets = len(nd.nbrs)
		}
		s.announce(nd.id, targets)
		if full {
			nd.incoming.ClearAll()
			for i := range nd.nbrs {
				nd.sendReverse(s, int32(i))
			}
		} else {
			for i := range nd.nbrs {
				if !nd.list.Test(i) {
					nd.incoming.Clear(i)
				}
			}
			for i := range nd.nbrs {
				if !nd.list.Test(i) {
					nd.sendReverse(s, int32(i))
				}
			}
		}
		nd.list.ClearAll()
	case StaticPartialReversal:
		slots := nd.initIn
		if nd.count%2 == 1 {
			slots = nd.initOut
		}
		nd.count++
		s.announce(nd.id, len(slots))
		for _, i := range slots {
			nd.incoming.Clear(int(i))
		}
		for _, i := range slots {
			nd.sendReverse(s, i)
		}
	default:
		panic(fmt.Sprintf("dist: step on %v", nd.alg))
	}
}

// act steps while this node believes it is a sink. FullReversal and
// PartialReversal steps always produce an outgoing edge, so the loop runs
// at most once; StaticPartialReversal may take one dummy parity step first.
func (nd *runNode) act(s *shard) {
	for nd.viewSink() {
		nd.step(s)
	}
}

// receive applies one reversal announcement from the neighbour at slot and
// takes any steps it enables. The owning shard calls it with full
// ownership of the node. Bit sets are idempotent, so duplicated deliveries
// cannot corrupt the view even without the reliable-delivery layer's
// sequence-number dedup.
func (nd *runNode) receive(s *shard, slot int32) {
	nd.incoming.Set(int(slot))
	if nd.alg == PartialReversal {
		nd.list.Set(int(slot))
	}
	nd.act(s)
}

// sendReverse emits the reversal announcement for the edge at slot i. On a
// reliable network it is a bare route; with the ack/retransmit layer armed
// it assigns the link's next sequence number, resets the unacked state and
// routes the payload through the fault injector via s.send.
func (nd *runNode) sendReverse(s *shard, i int32) {
	if nd.rel == nil {
		s.route(shardMsg{To: nd.nbrs[i], Slot: nd.peerSlot[i]})
		return
	}
	r := nd.rel
	r.sendSeq[i]++
	r.acked.Clear(int(i))
	r.retries[i] = 0
	s.send(nd.id, i, nd.nbrs[i], nd.peerSlot[i], r.sendSeq[i], 0, msgData)
}

// handle dispatches one delivered transmission under the reliable-delivery
// layer (the shard calls it instead of receive when an adversary is armed,
// once per coalesced copy; holdbacks are resolved before this point).
//
//   - Fresh payloads are acknowledged and applied; stale ones (duplicates,
//     late retransmissions) are re-acknowledged only — a late copy must not
//     resurrect a view the receiver has since reversed, which is what keeps
//     every step a legal sequential automaton transition.
//   - Acks clear the link's unacked state.
//   - Nacks (loss notifications) trigger a retransmission of the still
//     current, still unacknowledged payload; obsolete nacks — the link has
//     moved on, or an ack from a surviving duplicate confirmed delivery —
//     are dropped.
func (nd *runNode) handle(s *shard, m shardMsg) {
	r := nd.rel
	switch m.Kind {
	case msgData:
		s.send(nd.id, m.Slot, nd.nbrs[m.Slot], nd.peerSlot[m.Slot], m.Seq, 0, msgAck)
		if m.Seq <= r.recvSeq[m.Slot] {
			return // stale duplicate or late retransmission: re-acked only
		}
		r.recvSeq[m.Slot] = m.Seq
		nd.receive(s, m.Slot)
	case msgAck:
		if m.Seq == r.sendSeq[m.Slot] {
			r.acked.Set(int(m.Slot))
		}
	case msgNack:
		if m.Seq != r.sendSeq[m.Slot] || r.acked.Test(int(m.Slot)) {
			return
		}
		r.retries[m.Slot]++
		s.send(nd.id, m.Slot, nd.nbrs[m.Slot], nd.peerSlot[m.Slot], m.Seq, r.retries[m.Slot], msgData)
	}
}

// Run executes alg on in's topology with the default Options (GOMAXPROCS
// shards, trace recorded, reliable network) until global quiescence and
// returns the final orientation, cost statistics and the linearized step
// trace. It returns ctx.Err() if the context is cancelled first. Use
// RunWith to tune the shard count, partition or fault adversary.
func Run(ctx context.Context, in *core.Init, alg Algorithm) (*Result, error) {
	return RunWith(ctx, in, alg, Options{})
}
