package dist

import (
	"context"
	"fmt"
	"slices"

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
	// Slot. It is counted traffic only: no state reads it on arrival.
	msgAck
)

// runNode is one node's entry in the static plane's node table: where its
// slots and its bits start, and NewPR's step count and in/out split.
// Everything else a node owns lives in the table's run-wide arrays, so the
// table is a constant number of allocations and 24 bytes per node.
type runNode struct {
	// slot is the node's first slot in the slot-indexed arrays; its slots
	// follow the graph's row and end where the next entry's begin.
	slot int
	// bit is the offset of the node's first bit in the packed views.
	bit int
	// count is NewPR's step counter; its parity selects the reversal set.
	count int32
	// split is NewPR's number of initial in-neighbours: the node's first
	// split parity slots reverse on even counts, the rest on odd ones.
	split int32
}

// nodeTable is the static plane's protocol state. Per-slot state is
// indexed like the graph's rows (a node's slot i is its edge to
// Neighbors(u)[i]); the boolean views (incoming, list) are
// bit-packed, one bit per slot instead of one byte, which is what makes
// 10M-node state fit cache and memory. Packing is dense within one shard's
// nodes and word-aligned at shard boundaries, so no two shard goroutines
// ever write the same word. The protocol rules below hand their messages
// to the owning shard passed to act/receive/handle.
type nodeTable struct {
	g    *graph.Graph
	alg  Algorithm
	dest graph.NodeID
	// node has n+1 entries; the last marks where the slots and bits end.
	node []runNode
	// peer[s] is the receiver-side slot of slot s: the Slot a shardMsg
	// over that edge must carry so the receiver finds the shared edge in
	// O(1).
	peer []int32
	// incoming bit i of a node is its view of its slot-i edge: set if the
	// edge points toward the node. Views marked incoming are always
	// truthful; views marked outgoing may lag behind an undelivered
	// shardMsg. The sink check is a word-at-a-time AllSet scan, so no
	// incremental counter is needed.
	incoming []uint64
	// list holds PR's list[u] as a slot bit per neighbour that reversed
	// toward u since its last step; nil for the other variants.
	list []uint64
	// parity holds NewPR's immutable reversal sets as slot indices: each
	// node's split initial in-neighbours, then its initial out-neighbours.
	// nil for the other variants.
	parity []int32
	// sendSeq[s] and recvSeq[s] are the reliable-delivery layer's latest
	// payload sequence number sent and highest received over slot s
	// (1-based; 0 = none), armed only when a fault adversary is configured;
	// nil keeps the exact pre-fault path. A node reverses the same edge
	// again only after the neighbour reversed it back, which requires the
	// neighbour to have received the previous payload, so one high-water
	// mark per link deduplicates on the receive side: a stale copy
	// (duplicate or held back) is acknowledged but not re-applied, which
	// keeps it from resurrecting an already-reversed view.
	sendSeq, recvSeq []uint32
}

// newNodeTable lays out the node table of alg on in's topology for part's
// shards and lists each shard's members, ascending. It sets every node's
// first slot and first bit and allocates the run-wide arrays; the entries
// themselves are filled by fill, one shard at a time. With reliable set (a
// fault adversary is armed), the table also gets the slot-indexed
// sequence numbers.
//
// Consecutive nodes of one shard pack their bits densely into shared
// words, and the layout inserts word-alignment padding wherever the owner
// changes, so two shards never write the same backing word — neither when
// they fill their entries nor when they run — and need no synchronization
// on the views.
func newNodeTable(in *core.Init, alg Algorithm, reliable bool, part partitioner) (*nodeTable, [][]graph.NodeID) {
	g := in.Graph()
	n := g.NumNodes()
	slots := 2 * g.NumEdges()
	t := &nodeTable{
		g:    g,
		alg:  alg,
		dest: in.Destination(),
		node: make([]runNode, n+1),
		peer: make([]int32, slots),
	}
	// start[d+1] counts shard d's nodes, then becomes where its members
	// end in all.
	start := make([]int, part.shards+1)
	slot, bit, prev := 0, 0, 0
	for u := range n {
		d := part.shardOf(graph.NodeID(u))
		if u > 0 && d != prev {
			bit = bitset.Align(bit)
		}
		prev = d
		start[d+1]++
		t.node[u] = runNode{slot: slot, bit: bit}
		deg := g.Degree(graph.NodeID(u))
		slot += deg
		bit += deg
	}
	t.node[n] = runNode{slot: slot, bit: bit}
	words := bitset.Words(bit)
	t.incoming = make([]uint64, words)
	switch alg {
	case PartialReversal:
		t.list = make([]uint64, words)
	case StaticPartialReversal:
		t.parity = make([]int32, slots)
	}
	if reliable {
		t.sendSeq, t.recvSeq = make([]uint32, slots), make([]uint32, slots)
	}
	for d := range part.shards {
		start[d+1] += start[d]
	}
	all := make([]graph.NodeID, n)
	members := make([][]graph.NodeID, part.shards)
	for d := range members {
		members[d] = all[start[d]:start[d]:start[d+1]]
	}
	for u := range n {
		d := part.shardOf(graph.NodeID(u))
		members[d] = append(members[d], graph.NodeID(u))
	}
	return t, members
}

// fill sets up the entries of members, which one shard owns: their peer
// slots, initial views and NewPR parity sets, read once, by slot, which is
// what lets every delivered message skip the neighbour lookup forever
// after. Each shard fills its own members at the start of its goroutine,
// before its initial acts. It needs no barrier with the other shards: a
// shard reads only its own nodes' entries (a send reads the sender's peer
// slot) and takes no batch from its inbox before its initial cascade has
// drained, and the views are word-aligned at shard boundaries.
func (t *nodeTable) fill(in *core.Init, members []graph.NodeID) {
	g := t.g
	for _, id := range members {
		nd := &t.node[id]
		incoming := t.view(t.incoming, id)
		if t.parity != nil {
			nd.split = int32(len(in.InNbrs(id)))
		}
		ins, outs := nd.slot, nd.slot+int(nd.split)
		for i, v := range g.Neighbors(id) {
			j, _ := slices.BinarySearch(g.Neighbors(v), id)
			t.peer[nd.slot+i] = int32(j)
			if in.InitiallyIncoming(id, i) {
				incoming.Set(i)
				if t.parity != nil {
					t.parity[ins] = int32(i)
					ins++
				}
			} else if t.parity != nil {
				t.parity[outs] = int32(i)
				outs++
			}
		}
	}
}

// view returns u's bits of the packed array words.
func (t *nodeTable) view(words []uint64, u graph.NodeID) bitset.View {
	return bitset.Slice(words, t.node[u].bit, t.degree(u))
}

// degree returns u's number of slots.
func (t *nodeTable) degree(u graph.NodeID) int { return t.node[u+1].slot - t.node[u].slot }

// viewSink reports whether u believes it is an enabled sink: not the
// destination, at least one neighbour, and every incident edge incoming in
// its view. The packed view makes this a word-at-a-time scan — ⌈deg/64⌉
// compares instead of a per-slot loop or a maintained counter.
func (t *nodeTable) viewSink(u graph.NodeID) bool {
	return u != t.dest && t.degree(u) > 0 && t.view(t.incoming, u).AllSet()
}

// heads returns, per edge, the endpoint it points toward, read from the
// lower endpoint's view. At quiescence both endpoints agree on every edge.
func (t *nodeTable) heads() []graph.NodeID {
	head := make([]graph.NodeID, t.g.NumEdges())
	for u := range len(t.node) - 1 {
		id := graph.NodeID(u)
		incoming := t.view(t.incoming, id)
		for i, v := range t.g.Neighbors(id) {
			switch {
			case v < id:
			case incoming.Test(i):
				head[t.g.EdgeAt(id, i)] = id
			default:
				head[t.g.EdgeAt(id, i)] = v
			}
		}
	}
	return head
}

// step performs one reversal step by u, selecting the reversed slots by
// the variant's rule. The caller has checked viewSink, so every incident
// edge truly points toward u and the reversals below are valid automaton
// transitions. The step is announced before any of its messages is handed
// to the shard, and all view flags are cleared before the first send, so
// the step takes effect on u's view as a whole before any of its messages
// leaves.
func (t *nodeTable) step(s *shard, u graph.NodeID) {
	deg := t.degree(u)
	incoming := t.view(t.incoming, u)
	switch t.alg {
	case FullReversal:
		s.announce(u, deg)
		incoming.ClearAll()
		for i := range deg {
			t.sendReverse(s, u, int32(i))
		}
	case PartialReversal:
		list := t.view(t.list, u)
		listCount := list.Count()
		full := listCount == deg
		targets := deg - listCount
		if full {
			targets = deg
		}
		s.announce(u, targets)
		if full {
			incoming.ClearAll()
			for i := range deg {
				t.sendReverse(s, u, int32(i))
			}
		} else {
			for i := range deg {
				if !list.Test(i) {
					incoming.Clear(i)
				}
			}
			for i := range deg {
				if !list.Test(i) {
					t.sendReverse(s, u, int32(i))
				}
			}
		}
		list.ClearAll()
	case StaticPartialReversal:
		nd := &t.node[u]
		split := nd.slot + int(nd.split)
		slots := t.parity[nd.slot:split]
		if nd.count%2 == 1 {
			slots = t.parity[split : nd.slot+deg]
		}
		nd.count++
		s.announce(u, len(slots))
		for _, i := range slots {
			incoming.Clear(int(i))
		}
		for _, i := range slots {
			t.sendReverse(s, u, i)
		}
	default:
		panic(fmt.Sprintf("dist: step on %v", t.alg))
	}
}

// act steps while u believes it is a sink. FullReversal and
// PartialReversal steps always produce an outgoing edge, so the loop runs
// at most once; StaticPartialReversal may take one dummy parity step first.
func (t *nodeTable) act(s *shard, u graph.NodeID) {
	for t.viewSink(u) {
		t.step(s, u)
	}
}

// receive applies to u one reversal announcement from its neighbour at
// slot and takes any steps it enables. The owning shard calls it with full
// ownership of the node. Bit sets are idempotent, so duplicated deliveries
// cannot corrupt the view even without the reliable-delivery layer's
// sequence-number dedup.
func (t *nodeTable) receive(s *shard, u graph.NodeID, slot int32) {
	t.view(t.incoming, u).Set(int(slot))
	if t.alg == PartialReversal {
		t.view(t.list, u).Set(int(slot))
	}
	t.act(s, u)
}

// sendReverse emits u's reversal announcement for the edge at its slot i.
// On a reliable network it is a bare route; with the reliable-delivery
// layer armed it assigns the link's next sequence number and sends the
// payload through the fault injector via s.send.
func (t *nodeTable) sendReverse(s *shard, u graph.NodeID, i int32) {
	at := t.node[u].slot + int(i)
	v := t.g.Neighbors(u)[i]
	if t.sendSeq == nil {
		s.route(v, shardMsg{To: v, Slot: t.peer[at]})
		return
	}
	t.sendSeq[at]++
	s.send(u, v, t.peer[at], t.sendSeq[at])
}

// handle delivers one transmission under the reliable-delivery layer (the
// shard calls it instead of receive when an adversary is armed; holdbacks
// are resolved before this point). Acks end here. Every payload copy is
// acknowledged, and only a fresh sequence number is applied: a stale copy
// (a duplicate, or one held back behind a later payload) must not
// resurrect a view the receiver has since reversed, which is what keeps
// every step a legal sequential automaton transition.
func (t *nodeTable) handle(s *shard, m shardMsg) {
	if m.Kind == msgAck {
		return
	}
	u := m.To
	at := t.node[u].slot + int(m.Slot)
	s.ack(u, t.g.Neighbors(u)[m.Slot], t.peer[at], m.Seq)
	if m.Seq <= t.recvSeq[at] {
		return // stale copy: acknowledged only
	}
	t.recvSeq[at] = m.Seq
	t.receive(s, u, m.Slot)
}

// Run executes alg on in's topology with the default Options (GOMAXPROCS
// shards, trace recorded, reliable network) until global quiescence and
// returns the final orientation, cost statistics and the linearized step
// trace. It returns ctx.Err() if the context is cancelled first. Use
// RunWith to tune the shard count, partition or fault adversary.
func Run(ctx context.Context, in *core.Init, alg Algorithm) (*Result, error) {
	return RunWith(ctx, in, alg, Options{})
}
