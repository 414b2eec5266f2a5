package dist

import (
	"cmp"
	"fmt"
	"slices"

	"linkreversal/internal/core"
	"linkreversal/internal/graph"
)

// RefLevel is the TORA-style reference level of a dynamic height: the
// (τ, oid, r) prefix that a node defines when a link failure leaves it with
// no route, propagates to spread the search for an alternate route, and
// reflects when the search hits a dead end. The zero value (Tau == 0) is
// the zero reference level on which ordinary Gafni–Bertsekas partial
// reversal runs; τ values are drawn from a global failure counter, so every
// defined level is unique to one (failure, node) pair.
type RefLevel struct {
	// Tau is the failure-counter value at definition time; 0 is the zero
	// level.
	Tau uint32
	// Oid is the node that defined the level.
	Oid graph.NodeID
	// R is the reflection bit: a reflected level is ordered above its
	// unreflected form, which is what turns the propagation wave around.
	R bool
}

// IsZero reports whether l is the zero reference level.
func (l RefLevel) IsZero() bool { return l.Tau == 0 }

// Compare orders levels lexicographically by (Tau, Oid, R); reflected
// levels sort above their unreflected forms.
func (l RefLevel) Compare(o RefLevel) int {
	if c := cmp.Compare(l.Tau, o.Tau); c != 0 {
		return c
	}
	if c := cmp.Compare(l.Oid, o.Oid); c != 0 {
		return c
	}
	return cmp.Compare(b2i(l.R), b2i(o.R))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// String implements fmt.Stringer.
func (l RefLevel) String() string {
	if l.IsZero() {
		return "0"
	}
	r := 0
	if l.R {
		r = 1
	}
	return fmt.Sprintf("(%d,%d,%d)", l.Tau, l.Oid, r)
}

// DynHeight is the height of one DynamicNetwork node: a reference level
// followed by a Gafni–Bertsekas pair. At the zero level H is the ordinary
// GB (a, b, id) triple; at a defined level A is 0 and B is the TORA δ
// offset that orders nodes within the level. Heights compare
// lexicographically — level first — so every pair of nodes is strictly
// ordered (IDs break ties) and the induced orientation is acyclic by
// construction at every instant.
type DynHeight struct {
	Lvl RefLevel
	H   core.Height
}

// Less reports whether h orders strictly below o.
func (h DynHeight) Less(o DynHeight) bool {
	if c := h.Lvl.Compare(o.Lvl); c != 0 {
		return c < 0
	}
	return h.H.Less(o.H)
}

// String implements fmt.Stringer.
func (h DynHeight) String() string {
	return fmt.Sprintf("[%s %s]", h.Lvl, h.H)
}

// nbrView is a node's knowledge about one live neighbour or pending peer:
// the freshest height heard, keyed by the peer's ID and stamped with the
// peer's generation. Within one generation heights only grow, so the view
// is a valid lower bound of the peer's true height; a higher generation
// (assigned by the control plane when it erases a healed component's
// heights) overrides any view from an earlier generation, which is what
// lets heights legally shrink at a heal without breaking the lower-bound
// reasoning.
type nbrView struct {
	id    graph.NodeID
	h     DynHeight
	gen   uint32
	known bool
}

// mergeView folds an announced (height, generation) into view: a newer
// generation replaces outright, within a generation only larger heights
// stick.
func mergeView(view nbrView, h DynHeight, gen uint32) nbrView {
	if !view.known || gen > view.gen || (gen == view.gen && view.h.Less(h)) {
		return nbrView{id: view.id, h: h, gen: gen, known: true}
	}
	return view
}

// viewList is a slice of views sorted ascending by peer ID. The topology is
// static between churn events, so lookups (per message) vastly outnumber
// inserts and deletes (per link event); sorted-slice storage makes the
// former allocation-free and cache-friendly and pays O(deg) movement only
// for the latter.
type viewList []nbrView

// search returns the position of id and whether it is present.
func (l viewList) search(id graph.NodeID) (int, bool) {
	return slices.BinarySearchFunc(l, id, func(v nbrView, id graph.NodeID) int {
		return cmp.Compare(v.id, id)
	})
}

// get returns the view for id, if present.
func (l viewList) get(id graph.NodeID) (nbrView, bool) {
	if i, ok := l.search(id); ok {
		return l[i], true
	}
	return nbrView{}, false
}

// put inserts or replaces the view for v.id, keeping the order.
func (l *viewList) put(v nbrView) {
	if i, ok := l.search(v.id); ok {
		(*l)[i] = v
	} else {
		*l = slices.Insert(*l, i, v)
	}
}

// remove deletes the view for id, if present, and reports whether it was.
func (l *viewList) remove(id graph.NodeID) (nbrView, bool) {
	i, ok := l.search(id)
	if !ok {
		return nbrView{}, false
	}
	v := (*l)[i]
	*l = slices.Delete(*l, i, i+1)
	return v, true
}

// dynKind discriminates DynamicNetwork messages.
type dynKind int

const (
	// dynStart is the one-shot startup token: evaluate the initial state.
	dynStart dynKind = iota + 1
	// dynHeight carries the sender's current height and generation. It is
	// the only kind exposed to the fault adversary: announcements are
	// idempotent under the generation-aware merge, so duplication and delay
	// are absorbed for free, and loss is repaired by sender-side
	// retransmission under the injector's fair-loss bound.
	dynHeight
	// dynLinkUp tells the receiver it gained the link to Peer.
	dynLinkUp
	// dynLinkDown tells the receiver it lost the link to Peer.
	dynLinkDown
	// dynPoke asks a ceiling-suspended node to re-evaluate after the
	// control plane raised the ceiling.
	dynPoke
	// dynCrash crash-stops the receiver: it drops all protocol traffic
	// until it recovers.
	dynCrash
	// dynRecover ends a crash window. Views carries the control plane's
	// authoritative snapshot of the node's neighbourhood (the node missed
	// every link event and announcement while crashed), and the node
	// re-announces its height so peers that failed to reach it catch up.
	dynRecover
	// dynRemove permanently removes the receiver from the network.
	dynRemove
	// dynReset is the CLR-like height erasure of the heal path: the control
	// plane rewrites the receiver's height, generation and neighbour views
	// wholesale, wiping the reference levels and inflated heights a healed
	// partition left behind.
	dynReset
)

// dynMsg is a DynamicNetwork protocol or control message.
type dynMsg struct {
	Kind dynKind
	// To is the receiver; the shards route on it.
	To graph.NodeID
	// Peer is the subject node: the sender of a height announcement, or the
	// far endpoint of a link event.
	Peer graph.NodeID
	H    DynHeight
	Gen  uint32
	// Hold is the fault adversary's remaining holdback: the receiver
	// requeues the message behind its current backlog Hold times before
	// delivering it.
	Hold uint8
	// Views is the authoritative neighbourhood carried by dynRecover and
	// dynReset, sorted by peer ID.
	Views []nbrView
}
