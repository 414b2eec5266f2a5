package dist

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"linkreversal/internal/bitset"
	"linkreversal/internal/core"
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
	"linkreversal/internal/workload"
)

// DynamicNetwork runs the height-based Partial Reversal protocol
// (Gafni–Bertsekas pair heights extended with TORA-style reference levels)
// over a topology that changes at runtime. Links are added and failed, and
// nodes added, removed, crashed and recovered, through the control-plane
// methods; nodes learn about changes via messages, exactly like they learn
// about neighbour heights. The protocol runs on a sharded worker pool of
// DynOptions.Shards goroutines; Shards = n gives every node its own shard.
//
// Partition detection is exact: a component cut off from the destination
// escalates through TORA reference levels — generate on a failure-caused
// route loss, propagate, reflect at dead ends — until the defining node
// sees its own reflection from every neighbour and parks. AwaitQuiescence
// then validates suspicions against the authoritative adjacency and
// reports a PartitionError naming precisely the nodes with no path to the
// destination. Healing the cut with AddLink erases the stranded
// component's heights (CLR-style) back to small zero-level values, so
// heights do not ratchet upward across cut/heal cycles. A height ceiling
// survives only as a runaway backstop for pathological concurrent churn.
type DynamicNetwork struct {
	// mu guards the control plane's state and serializes it: every
	// topology mutation runs as one control transaction under mu (see
	// control), so its adjacency update and its message injections form
	// one atomic unit. Otherwise two concurrent calls on the same edge
	// could deliver their messages in the opposite order of their
	// adjacency updates and desync the nodes' neighbour views from adj.
	mu   sync.Mutex
	cond *sync.Cond
	// ctlMsgs is the message buffer the control plane reuses, so a link
	// change allocates no slice for its messages. Guarded by mu.
	ctlMsgs []dynMsg

	opts DynOptions
	n    int
	dest graph.NodeID
	// adj is the control plane's authoritative adjacency: one ascending
	// neighbour row per node, which each link change edits and snapshots
	// share page by page (see adjTable).
	adj adjTable
	// zeroDeg counts live non-destination nodes with an empty row (trivially
	// cut off), kept by the row edits so the quiescence check needs no
	// per-call scan.
	zeroDeg int
	// heights and gens mirror every node's current height and generation
	// (updated by the node under mu at step time, and by the control plane
	// at erasure time), so snapshots, erasure and ceiling maintenance need
	// no extra message round. Snapshots share heights itself; while
	// heightsShared is set, the next write clones it first (see
	// ownHeightsLocked).
	heights       []DynHeight
	heightsShared bool
	gens          []uint32
	// suspended marks nodes parked at the runaway ceiling; detected marks
	// nodes whose reference level came back reflected (the TORA partition
	// signal); cut marks nodes named by the last PartitionError, pending
	// erasure at heal. dead marks removed nodes, crashedCtl the control
	// plane's crash ledger. All are read and written only under mu.
	suspended   marks
	detected    marks
	cut         marks
	dead        *bitset.Set
	crashedCtl  []bool
	everCrashed bool

	// reach, inR and depth are BFS scratch reused across AwaitQuiescence
	// calls, so validation allocates nothing; reach and inR are packed so
	// the per-call reset is a word-at-a-time clear.
	reach *bitset.Set
	inR   *bitset.Set
	depth []int
	queue []graph.NodeID

	// inflight is the batch-token count of the shard runtime (see tokens).
	// The shards add and retire tokens lock-free; the control plane adds
	// its injections' tokens under mu (injectLocked), so a zero read under
	// mu means the network is quiescent and stays so until mu is released.
	inflight tokens
	stats    Stats
	retrans  atomic.Int64
	// tau is the global failure counter reference levels draw from.
	tau atomic.Uint32
	// ceiling bounds zero-level a-growth, ceilingB reference-level δ
	// descent; maxA and minB track the current extremes incrementally.
	ceiling  int
	ceilingB int
	maxA     int
	minB     int
	slack    int
	stopped  bool

	inj *faults.Injector
	// rt runs the protocol of dynnode.go. states is published copy-on-write
	// so AddNode never blocks senders; shards reach a new entry only via
	// messages that causally follow its publication.
	rt     *shardRuntime[dynMsg]
	states atomic.Pointer[[]*dynState]

	// pub is the epoch-snapshot publication slot: an immutable *Snapshot
	// swapped in atomically (RCU-style) by the serialized control plane, so
	// ReadSnapshot is a single atomic load that never touches mu.
	// epoch counts publications; pubSteps/pubMessages/pubTopoVer remember
	// the state fingerprint of the last publication so a re-publication of
	// an unchanged state is skipped (which is what keeps the clean-path
	// AwaitQuiescence allocation-free). topoVer is bumped by every
	// control-plane mutation that changes snapshot content without
	// necessarily moving the step counters. All except pub are guarded by
	// mu; pub is written under mu and read lock-free.
	pub         atomic.Pointer[Snapshot]
	epoch       uint64
	topoVer     uint64
	pubSteps    int
	pubMessages int
	pubTopoVer  uint64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// marks is a node bitset that keeps its own member count, so the
// quiescence checks read emptiness without a scan, and NextSet sweeps over
// a million idle nodes touch kilowords, not megabytes. Guarded by mu.
type marks struct {
	*bitset.Set
	count int
}

// mark adds u to the set and unmark removes it; both keep count.
func (m *marks) mark(u graph.NodeID) {
	if !m.Test(int(u)) {
		m.Set.Set(int(u))
		m.count++
	}
}

func (m *marks) unmark(u graph.NodeID) {
	if m.Test(int(u)) {
		m.Clear(int(u))
		m.count--
	}
}

// NewDynamicNetwork starts the protocol on topo's graph with the default
// options (GOMAXPROCS shards, reliable network), with initial
// heights chosen so the derived link directions equal topo's initial
// orientation. Call AwaitQuiescence before reading a Snapshot, and Stop
// when done.
func NewDynamicNetwork(topo *workload.Topology) (*DynamicNetwork, error) {
	return NewDynamicNetworkWith(topo, DynOptions{})
}

// NewDynamicNetworkWith starts the protocol on topo's graph with explicit
// shard and fault options.
func NewDynamicNetworkWith(topo *workload.Topology, opts DynOptions) (*DynamicNetwork, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	in, err := topo.Init()
	if err != nil {
		return nil, err
	}
	g := topo.Graph
	n := g.NumNodes()
	// One node per shard is the finest layout; nodes added later join the
	// existing shards (see partitioner.shardOf).
	opts.Shards = min(opts.Shards, n)
	d := &DynamicNetwork{
		opts:       opts,
		n:          n,
		dest:       topo.Dest,
		adj:        newAdjTable(g),
		heights:    make([]DynHeight, n),
		gens:       make([]uint32, n),
		suspended:  marks{Set: bitset.NewSet(n)},
		detected:   marks{Set: bitset.NewSet(n)},
		cut:        marks{Set: bitset.NewSet(n)},
		dead:       bitset.NewSet(n),
		crashedCtl: make([]bool, n),
		reach:      bitset.NewSet(n),
		inR:        bitset.NewSet(n),
		depth:      make([]int, n),
		slack:      8*n + 64,
		stop:       make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	d.inflight.onZero = func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	}
	for u := 0; u < n; u++ {
		d.heights[u] = DynHeight{H: in.PairHeight(graph.NodeID(u))}
		if d.heights[u].H.B < d.minB {
			d.minB = d.heights[u].H.B
		}
	}
	d.ceiling = d.slack
	d.ceilingB = -d.minB + d.slack
	for u := 0; u < n; u++ {
		if len(g.Neighbors(graph.NodeID(u))) == 0 && graph.NodeID(u) != d.dest {
			d.zeroDeg++
		}
	}
	if opts.Adversary != nil {
		d.inj = faults.NewInjector(opts.Adversary)
	}
	d.startShards()
	// Publish the initial state as epoch 1 so ReadSnapshot never returns
	// nil, then start the cadence publisher if one was configured.
	d.mu.Lock()
	d.publishLocked()
	d.mu.Unlock()
	if opts.PublishEvery > 0 {
		d.wg.Add(1)
		go d.publisher(opts.PublishEvery)
	}
	return d, nil
}

// adjPageRows is the number of neighbour rows in one copy-on-write page of
// the adjacency table. A snapshot copies one page pointer per adjPageRows
// nodes (98 at 100k nodes); the first row write to a page a snapshot
// shares copies adjPageRows slice headers (24 KB).
const adjPageRows = 1024

// adjPage is one page of neighbour rows.
type adjPage [adjPageRows][]graph.NodeID

// adjRows is a paged table of ascending neighbour rows indexed by node ID.
// A row is never edited in place: a link change replaces it with a fresh
// slice, so whoever holds an old row keeps seeing it.
type adjRows []*adjPage

// row returns u's neighbours in ascending order.
func (a adjRows) row(u graph.NodeID) []graph.NodeID {
	return a[uint(u)/adjPageRows][uint(u)%adjPageRows]
}

// adjTable is the control plane's adjacency: the paged rows plus which
// pages it owns outright. A snapshot takes a copy of the page pointers and
// every page becomes shared; the first row write to a shared page copies
// that page alone, so later link changes never show in a snapshot taken
// before them. Rows past the node count are nil. Guarded by mu.
type adjTable struct {
	adjRows
	owned []bool
}

// newAdjTable builds the table of g's nodes. The initial rows alias g's
// sorted adjacency instead of copying it: the graph never changes, and
// rows are only ever replaced, never edited.
func newAdjTable(g *graph.Graph) adjTable {
	var t adjTable
	t.grow(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		t.adjRows[u/adjPageRows][u%adjPageRows] = g.Neighbors(graph.NodeID(u))
	}
	return t
}

// grow makes room for node IDs below n with new empty, owned pages.
func (t *adjTable) grow(n int) {
	for len(t.adjRows)*adjPageRows < n {
		t.adjRows = append(t.adjRows, new(adjPage))
		t.owned = append(t.owned, true)
	}
}

// share returns the page pointers for a snapshot and marks every page
// shared.
func (t *adjTable) share() adjRows {
	clear(t.owned)
	return slices.Clone(t.adjRows)
}

// set replaces u's row, first copying u's page if a snapshot shares it.
func (t *adjTable) set(u graph.NodeID, row []graph.NodeID) {
	p := uint(u) / adjPageRows
	if !t.owned[p] {
		cp := *t.adjRows[p]
		t.adjRows[p] = &cp
		t.owned[p] = true
	}
	t.adjRows[p][uint(u)%adjPageRows] = row
}

// insertNbrLocked adds v to u's row and removeNbrLocked takes it out, each
// replacing the row with a fresh slice. Both keep the zero-degree tally
// behind the allocation-free quiescence check. Callers must hold mu.
func (d *DynamicNetwork) insertNbrLocked(u, v graph.NodeID) {
	row := d.adj.row(u)
	i, _ := slices.BinarySearch(row, v)
	d.adj.set(u, slices.Concat(row[:i], []graph.NodeID{v}, row[i:]))
	if len(row) == 0 && u != d.dest && !d.dead.Test(int(u)) {
		d.zeroDeg--
	}
}

func (d *DynamicNetwork) removeNbrLocked(u, v graph.NodeID) {
	row := d.adj.row(u)
	i, _ := slices.BinarySearch(row, v)
	d.adj.set(u, slices.Concat(row[:i], row[i+1:]))
	if len(row) == 1 && u != d.dest && !d.dead.Test(int(u)) {
		d.zeroDeg++
	}
}

// ownHeightsLocked makes the height mirror private before a write: a
// snapshot shares the mirror, so the first write after one clones it.
// Callers must hold mu.
func (d *DynamicNetwork) ownHeightsLocked() {
	if d.heightsShared {
		d.heights = slices.Clone(d.heights)
		d.heightsShared = false
	}
}

// control runs one control-plane transaction under mu, returning
// ErrStopped after Stop. Otherwise op validates its arguments, changes the
// authoritative state and appends the messages that tell the nodes, in
// delivery order, to the buffer it is handed; a rejected op returns before
// any token is counted. control then injects the messages (injectLocked)
// before it releases mu, so two transactions' messages never interleave.
func (d *DynamicNetwork) control(op func(msgs []dynMsg) ([]dynMsg, error)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return ErrStopped
	}
	msgs, err := op(d.ctlMsgs[:0])
	if err != nil {
		return err
	}
	d.injectLocked(msgs)
	return nil
}

// injectLocked is the one place control messages enter the shards. It
// counts one in-flight token per message, so AwaitQuiescence cannot
// report quiescence before every message is handled, and puts the
// messages in order as one-message batches; a put never blocks, so both
// happen under mu. msgs is then kept as the reusable ctlMsgs buffer.
func (d *DynamicNetwork) injectLocked(msgs []dynMsg) {
	d.inflight.add(len(msgs))
	for _, m := range msgs {
		b := d.rt.getBatch()
		b.msgs = append(b.msgs, m)
		d.rt.workers[d.rt.part.shardOf(m.To)].in.put(b)
	}
	clear(msgs) // drop the views the buffer would otherwise keep alive
	d.ctlMsgs = msgs[:0]
}

func (d *DynamicNetwork) validNode(u graph.NodeID) error {
	if int(u) < 0 || int(u) >= d.n {
		return fmt.Errorf("%w: %d", ErrUnknownNode, u)
	}
	if d.dead.Test(int(u)) {
		return fmt.Errorf("%w: node %d was removed", ErrUnknownNode, u)
	}
	return nil
}

// validLinkLocked checks the endpoints of {u,v} and that the link is
// present if want says so, absent otherwise. Callers must hold mu.
func (d *DynamicNetwork) validLinkLocked(u, v graph.NodeID, want bool) error {
	if err := d.validNode(u); err != nil {
		return err
	}
	if err := d.validNode(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("%w: %d", ErrSelfLink, u)
	}
	e := graph.NormalizedEdge(u, v)
	switch _, linked := slices.BinarySearch(d.adj.row(u), v); {
	case linked && !want:
		return fmt.Errorf("%w: {%d,%d}", ErrLinkExists, e.U, e.V)
	case !linked && want:
		return fmt.Errorf("%w: {%d,%d}", ErrNoSuchLink, e.U, e.V)
	}
	return nil
}

// unmarkLocked clears u's partition and ceiling marks. Callers must hold
// mu.
func (d *DynamicNetwork) unmarkLocked(u graph.NodeID) {
	d.cut.unmark(u)
	d.detected.unmark(u)
	d.suspended.unmark(u)
}

// pokesLocked appends a poke for every node parked at the ceiling, which
// makes it re-evaluate its state. Callers must hold mu.
func (d *DynamicNetwork) pokesLocked(msgs []dynMsg) []dynMsg {
	if d.suspended.count == 0 {
		return msgs
	}
	for id := d.suspended.NextSet(0); id >= 0; id = d.suspended.NextSet(id + 1) {
		msgs = append(msgs, dynMsg{Kind: dynPoke, To: graph.NodeID(id)})
	}
	return msgs
}

// viewsLocked returns u's authoritative neighbour views: every current
// neighbour with its mirrored height and generation. Callers must hold mu.
func (d *DynamicNetwork) viewsLocked(u graph.NodeID) []nbrView {
	links := d.adj.row(u)
	views := make([]nbrView, 0, len(links))
	for _, v := range links {
		views = append(views, nbrView{id: v, h: d.heights[v], gen: d.gens[v], known: true})
	}
	return views
}

// raiseCeilingLocked gives the runaway backstops fresh headroom above the
// current height extremes.
func (d *DynamicNetwork) raiseCeilingLocked() {
	if c := d.maxA + d.slack; c > d.ceiling {
		d.ceiling = c
	}
	if c := -d.minB + d.slack; c > d.ceilingB {
		d.ceilingB = c
	}
}

// AddLink inserts the link {u,v}. The endpoints learn of it by message and
// exchange heights to orient it, so acyclicity is preserved
// unconditionally. AddLink is also the healing action after a partition:
// if the network is quiescent and nodes are marked cut or detected, their
// (now reachable) component's heights are erased to small zero-level
// values before the endpoints are introduced — the CLR-like reset that
// stops heights from ratcheting upward across cut/heal cycles.
func (d *DynamicNetwork) AddLink(u, v graph.NodeID) error {
	return d.control(func(msgs []dynMsg) ([]dynMsg, error) {
		if err := d.validLinkLocked(u, v, false); err != nil {
			return nil, err
		}
		d.insertNbrLocked(u, v)
		d.insertNbrLocked(v, u)
		d.topoVer++
		d.raiseCeilingLocked()
		if d.cut.count+d.detected.count > 0 && d.inflight.idle() {
			// The network is quiescent and carries partition marks: erase the
			// stranded heights before the new link's introductions flow, so
			// the healed component rejoins at small zero-level heights and
			// its reference levels never leak across the new link.
			msgs = d.eraseLocked(msgs)
		}
		msgs = append(msgs, dynMsg{Kind: dynLinkUp, To: u, Peer: v}, dynMsg{Kind: dynLinkUp, To: v, Peer: u})
		return d.pokesLocked(msgs), nil
	})
}

// FailLink removes the link {u,v}. The endpoints learn of it by message; a
// node that loses its last outgoing link to the failure defines a fresh
// reference level (the TORA generate case), which is what makes partition
// detection take O(component) steps instead of a ceiling grind.
func (d *DynamicNetwork) FailLink(u, v graph.NodeID) error {
	return d.control(func(msgs []dynMsg) ([]dynMsg, error) {
		if err := d.validLinkLocked(u, v, true); err != nil {
			return nil, err
		}
		d.removeNbrLocked(u, v)
		d.removeNbrLocked(v, u)
		d.topoVer++
		return append(msgs, dynMsg{Kind: dynLinkDown, To: u, Peer: v}, dynMsg{Kind: dynLinkDown, To: v, Peer: u}), nil
	})
}

// AddNode grows the network by one node with no links and returns its ID.
// The node is trivially cut off until AddLink attaches it, and
// AwaitQuiescence will report it so; attach it before awaiting.
func (d *DynamicNetwork) AddNode() (graph.NodeID, error) {
	var id graph.NodeID
	err := d.control(func(msgs []dynMsg) ([]dynMsg, error) {
		id = graph.NodeID(d.n)
		d.n++
		d.slack = 8*d.n + 64
		d.ownHeightsLocked()
		d.heights = append(d.heights, DynHeight{H: core.Height{ID: id}})
		d.gens = append(d.gens, 0)
		d.adj.grow(d.n)
		d.zeroDeg++
		for _, s := range []*bitset.Set{d.suspended.Set, d.detected.Set, d.cut.Set, d.dead, d.reach, d.inR} {
			s.Grow(d.n)
		}
		d.crashedCtl = append(d.crashedCtl, false)
		d.depth = append(d.depth, 0)
		d.topoVer++
		// Publish the new state before its start message can reach a shard.
		states := append(slices.Clip(*d.states.Load()), &dynState{net: d, id: id, h: d.heights[id]})
		d.states.Store(&states)
		return append(msgs, dynMsg{Kind: dynStart, To: id}), nil
	})
	return id, err
}

// RemoveNode permanently removes u and all its links. Neighbours learn by
// linkDown message; the node itself discards its state and ignores all
// further traffic. Removing the destination fails with ErrDestination.
func (d *DynamicNetwork) RemoveNode(u graph.NodeID) error {
	return d.control(func(msgs []dynMsg) ([]dynMsg, error) {
		if err := d.validNode(u); err != nil {
			return nil, err
		}
		if u == d.dest {
			return nil, fmt.Errorf("%w: %d", ErrDestination, u)
		}
		links := d.adj.row(u)
		msgs = append(msgs, dynMsg{Kind: dynRemove, To: u})
		for _, v := range links {
			d.removeNbrLocked(v, u)
			msgs = append(msgs, dynMsg{Kind: dynLinkDown, To: v, Peer: u})
		}
		// u is dead now: retract its zero-degree tally and its marks.
		if len(links) == 0 {
			d.zeroDeg--
		} else {
			d.adj.set(u, nil)
		}
		d.dead.Set(int(u))
		d.crashedCtl[u] = false
		d.unmarkLocked(u)
		d.topoVer++
		return msgs, nil
	})
}

// Crash crash-stops u: it drops every protocol message until Recover. Its
// links stay in the topology (a crashed node still counts as a connector
// for partition validation — it resumes with its state intact).
func (d *DynamicNetwork) Crash(u graph.NodeID) error {
	return d.control(func(msgs []dynMsg) ([]dynMsg, error) {
		if err := d.validNode(u); err != nil {
			return nil, err
		}
		if d.crashedCtl[u] {
			return nil, fmt.Errorf("%w: %d", ErrCrashed, u)
		}
		d.crashedCtl[u] = true
		d.everCrashed = true
		return append(msgs, dynMsg{Kind: dynCrash, To: u}), nil
	})
}

// Recover ends u's crash window. The node resumes from the control plane's
// snapshot: the recovery message carries the authoritative neighbourhood
// with current heights and generations (the node missed every link event
// and announcement while crashed), and the node re-announces itself so
// peers whose introductions it dropped catch up.
func (d *DynamicNetwork) Recover(u graph.NodeID) error {
	return d.control(func(msgs []dynMsg) ([]dynMsg, error) {
		if err := d.validNode(u); err != nil {
			return nil, err
		}
		if !d.crashedCtl[u] {
			return nil, fmt.Errorf("%w: %d", ErrNotCrashed, u)
		}
		d.crashedCtl[u] = false
		return append(msgs, dynMsg{Kind: dynRecover, To: u, Views: d.viewsLocked(u)}), nil
	})
}

// computeReachLocked runs a BFS from the destination over the
// authoritative adjacency into the reach scratch. Dead nodes have no links
// and are never visited; crashed nodes count as connectors.
func (d *DynamicNetwork) computeReachLocked() {
	d.reach.ClearAll()
	q := d.queue[:0]
	d.reach.Set(int(d.dest))
	q = append(q, d.dest)
	for h := 0; h < len(q); h++ {
		for _, v := range d.adj.row(q[h]) {
			if !d.reach.Test(int(v)) {
				d.reach.Set(int(v))
				q = append(q, v)
			}
		}
	}
	d.queue = q[:0]
}

// unreachableLocked returns the live nodes with no path to the
// destination, ascending. Callers must hold mu.
func (d *DynamicNetwork) unreachableLocked() []graph.NodeID {
	d.computeReachLocked()
	var cut []graph.NodeID
	for u := 0; u < d.n; u++ {
		if !d.dead.Test(u) && !d.reach.Test(u) {
			cut = append(cut, graph.NodeID(u))
		}
	}
	return cut
}

// cutLocked validates reachability and returns the live nodes with no path
// to the destination, ascending. A non-empty result refreshes the cut
// marks consumed by the heal-time erasure.
func (d *DynamicNetwork) cutLocked() []graph.NodeID {
	cut := d.unreachableLocked()
	if len(cut) > 0 {
		d.cut.ClearAll()
		d.cut.count = 0
		for _, u := range cut {
			d.cut.mark(u)
		}
	}
	return cut
}

// eraseLocked is the CLR-like height erasure: every live, reachable node
// carrying a partition mark (cut, detected or suspended) has its height
// rewritten to a small zero-level value and its generation bumped, so the
// healed component rejoins without any trace of the reference levels and
// inflated heights the partition left behind.
//
// The new heights are BFS layers within the marked region, seeded at its
// frontier (marked nodes adjacent to an unmarked live node): layer k gets
// height (0, k, id), which drains the region deterministically toward the
// live side. It appends to msgs, in order, height corrections to the
// region's outside neighbours (so no stale view of a lowered node survives
// anywhere) followed by the per-node resets; callers must inject them in
// exactly this order. Callers must hold mu and ensure the network is
// quiescent (no token in flight).
func (d *DynamicNetwork) eraseLocked(msgs []dynMsg) []dynMsg {
	d.computeReachLocked()
	// The region is the union of the mark sets restricted to live, reachable
	// nodes — assembled by iterating the (sparse) marks, not by scanning all
	// n nodes.
	d.inR.ClearAll()
	members := 0
	for _, m := range []*marks{&d.cut, &d.detected, &d.suspended} {
		for u := m.NextSet(0); u >= 0; u = m.NextSet(u + 1) {
			if !d.inR.Test(u) && !d.dead.Test(u) && d.reach.Test(u) {
				d.inR.Set(u)
				members++
				d.depth[u] = -1
			}
		}
	}
	if members == 0 {
		return msgs
	}
	d.topoVer++
	// Layer assignment: multi-source BFS from the region's frontier.
	q := d.queue[:0]
	for u := d.inR.NextSet(0); u >= 0; u = d.inR.NextSet(u + 1) {
		for _, v := range d.adj.row(graph.NodeID(u)) {
			if !d.inR.Test(int(v)) && !d.dead.Test(int(v)) {
				d.depth[u] = 0
				q = append(q, graph.NodeID(u))
				break
			}
		}
	}
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, v := range d.adj.row(u) {
			if d.inR.Test(int(v)) && d.depth[v] == -1 {
				d.depth[v] = d.depth[u] + 1
				q = append(q, v)
			}
		}
	}
	d.queue = q[:0]
	// Adopt the erased heights in the mirrors and clear the marks.
	d.ownHeightsLocked()
	for u := d.inR.NextSet(0); u >= 0; u = d.inR.NextSet(u + 1) {
		layer := d.depth[u]
		if layer < 0 {
			// Unreachable within the region (cannot happen: every marked
			// node's path to the destination exits the region through a
			// frontier node); park it above the region as a safety net.
			layer = d.n
		}
		d.gens[u]++
		d.heights[u] = DynHeight{H: core.Height{A: 0, B: layer, ID: graph.NodeID(u)}}
		d.unmarkLocked(graph.NodeID(u))
	}
	// Corrections first: by the time any post-erasure message reaches an
	// outside neighbour, its view of the lowered node is already current
	// (per-receiver FIFO delivers the earlier-enqueued correction first).
	for u := d.inR.NextSet(0); u >= 0; u = d.inR.NextSet(u + 1) {
		for _, v := range d.adj.row(graph.NodeID(u)) {
			if !d.inR.Test(int(v)) && !d.dead.Test(int(v)) {
				msgs = append(msgs, dynMsg{
					Kind: dynHeight, To: v, Peer: graph.NodeID(u),
					H: d.heights[u], Gen: d.gens[u],
				})
			}
		}
	}
	for u := d.inR.NextSet(0); u >= 0; u = d.inR.NextSet(u + 1) {
		msgs = append(msgs, dynMsg{
			Kind: dynReset, To: graph.NodeID(u),
			H: d.heights[u], Gen: d.gens[u], Views: d.viewsLocked(graph.NodeID(u)),
		})
	}
	return msgs
}

// AwaitQuiescence blocks until no node wants to step and no message is in
// flight, then validates the settled state against the authoritative
// topology. It returns nil on clean quiescence with every live node
// connected to the destination, a *PartitionError naming exactly the cut
// nodes otherwise, and ErrStopped after Stop.
//
// Detection is prompt: a component cut off from the destination escalates
// through reference levels and parks in O(component) steps instead of
// grinding heights to a ceiling. The validation itself is a BFS over the
// control plane's adjacency, so the report is exact regardless of how the
// protocol signalled (reflection, ceiling park, an isolated node, or a
// component silenced by a crash). On the clean path the check is
// allocation-free: degree counts are incremental and the BFS scratch is
// reused, and the BFS is skipped entirely when no partition signal, crash
// or zero-degree node exists to justify it.
func (d *DynamicNetwork) AwaitQuiescence() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		for !d.inflight.idle() && !d.stopped {
			d.cond.Wait()
		}
		if d.stopped {
			return ErrStopped
		}
		if d.suspended.count == 0 && d.detected.count == 0 && d.cut.count == 0 &&
			d.zeroDeg == 0 && !d.everCrashed {
			d.raiseCeilingLocked()
			d.publishLocked()
			return nil
		}
		if cut := d.cutLocked(); len(cut) > 0 {
			d.publishLocked()
			// Surface the flight recorder's tail alongside the partition
			// report — the events leading up to a cut are exactly what an
			// operator (or the hunt harness) wants to replay.
			d.opts.Observer.TriggerDump("partition")
			return &PartitionError{Cut: cut}
		}
		if d.cut.count+d.detected.count > 0 {
			// Partition marks without an actual cut: the caller healed the
			// topology without going through AddLink's quiescent-heal path
			// (or detection raced a concurrent heal). Erase the stranded
			// component now and wait for the reset cascade to settle.
			d.raiseCeilingLocked()
			d.injectLocked(d.eraseLocked(d.ctlMsgs[:0]))
			continue
		}
		if d.suspended.count > 0 {
			// Ceiling parks with full reachability: a legitimate cascade
			// outran the runaway backstop. Raise it and resume the parked
			// nodes.
			d.raiseCeilingLocked()
			d.injectLocked(d.pokesLocked(d.ctlMsgs[:0]))
			continue
		}
		d.raiseCeilingLocked()
		d.publishLocked()
		return nil
	}
}

// Stop terminates every shard goroutine and waits for them to exit. It
// is idempotent and wakes any AwaitQuiescence caller with ErrStopped.
func (d *DynamicNetwork) Stop() {
	d.stopOnce.Do(func() {
		d.mu.Lock()
		d.stopped = true
		d.cond.Broadcast()
		d.mu.Unlock()
		close(d.stop)
	})
	d.wg.Wait()
}

// Snapshot is the observed global state of a DynamicNetwork: cumulative
// cost counters plus the heights and links from which every edge direction
// derives. Snapshots taken at quiescence (after a nil AwaitQuiescence) are
// consistent global states; snapshots taken mid-flight are a coherent view
// of the mirrors but may predate in-flight updates.
type Snapshot struct {
	// Epoch numbers the publication that produced this snapshot: 0 for a
	// snapshot returned by Snapshot() (a direct read, not a publication),
	// and a strictly increasing positive value for snapshots obtained from
	// ReadSnapshot/PublishSnapshot. Two reads returning the same epoch saw
	// the very same immutable state.
	Epoch uint64
	// Published is when the snapshot was published as an epoch; it is zero
	// for a snapshot returned by Snapshot().
	Published time.Time
	// Quiescent records whether no message was in flight at capture time.
	// A quiescent snapshot of a connected component is destination-oriented
	// within it, so RouteInto succeeds from every connected node.
	Quiescent bool
	// Cut lists the live nodes that had no path to the destination at
	// capture time, ascending. It is computed only when the network carried
	// a partition signal (reference-level detection, a ceiling park, a
	// zero-degree node or a crash) — on the clean path it is nil without
	// any reachability scan.
	Cut []graph.NodeID
	// Steps, Messages and TotalReversals are cumulative since the network
	// started.
	Steps          int
	Messages       int
	TotalReversals int
	// Drops, Dups, Held and Retransmits count what the fault adversary did
	// to the height announcements; all zero on a reliable network.
	Drops       int
	Dups        int
	Held        int
	Retransmits int
	// Dest is the destination node.
	Dest graph.NodeID
	// Heights holds every node's height; edge {u,v} points from the
	// lexicographically larger to the smaller endpoint. The slice is shared
	// with the network and with other snapshots (the network clones its
	// mirror before its next height write), so it must not be modified.
	Heights []DynHeight
	adj     adjRows
	dead    *bitset.Set
}

// NumNodes returns the number of node slots in the snapshot (including
// removed nodes, which Removed reports).
func (s *Snapshot) NumNodes() int { return len(s.Heights) }

// Snapshot captures the network's current global state. It shares the
// network's adjacency pages and height mirror instead of copying them, so
// it copies only one page pointer per 1,024 nodes and one bit per node
// (the removed marks); the network copies a page or the mirror when it
// next writes it.
//
// Deprecated: use ReadSnapshot, or PublishSnapshot for the current state;
// Snapshot is kept only because bench/ calls it.
func (d *DynamicNetwork) Snapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

// snapshotLocked builds an immutable snapshot of the current state.
// Callers must hold mu. The snapshot shares the adjacency pages and the
// height mirror, both copy-on-write from here on, and clones the removed
// marks.
func (d *DynamicNetwork) snapshotLocked() *Snapshot {
	s := &Snapshot{
		Quiescent:      d.inflight.idle(),
		Steps:          d.stats.Steps,
		Messages:       d.stats.Messages,
		TotalReversals: d.stats.TotalReversals,
		Retransmits:    int(d.retrans.Load()),
		Dest:           d.dest,
		Heights:        slices.Clip(d.heights),
		adj:            d.adj.share(),
		dead:           d.dead.Clone(),
	}
	d.heightsShared = true
	if d.suspended.count+d.detected.count+d.cut.count+d.zeroDeg > 0 || d.everCrashed {
		// Same gate as AwaitQuiescence's clean path: only a partition
		// signal justifies the O(n+E) reachability scan. Unlike cutLocked
		// this leaves the heal-time cut marks untouched.
		s.Cut = d.unreachableLocked()
	}
	if d.inj != nil {
		fs := d.inj.Snapshot()
		s.Drops, s.Dups, s.Held = fs.Drops, fs.Dups, fs.Held
	}
	return s
}

// publishLocked publishes the current state as a fresh epoch, unless the
// state fingerprint (step and message counters plus the control plane's
// topology version) is unchanged since the last publication — republishing
// an identical state would spend allocations to hand readers a snapshot
// they already hold. Callers must hold mu.
func (d *DynamicNetwork) publishLocked() *Snapshot {
	if d.pubTopoVer == d.topoVer && d.pubSteps == d.stats.Steps &&
		d.pubMessages == d.stats.Messages {
		// Still republish a quiescent state over a non-quiescent
		// publication of the same fingerprint: topologies that stabilize
		// without any step (a chain born oriented) would otherwise never
		// publish a Quiescent snapshot.
		if s := d.pub.Load(); s != nil && (s.Quiescent || !d.inflight.idle()) {
			return s
		}
	}
	s := d.snapshotLocked()
	d.epoch++
	s.Epoch = d.epoch
	s.Published = time.Now()
	d.pubSteps = s.Steps
	d.pubMessages = s.Messages
	d.pubTopoVer = d.topoVer
	d.pub.Store(s)
	d.opts.Observer.Ctl().Note(obs.EvEpochPublish, d.dest, -1, int64(d.epoch))
	return s
}

// ReadSnapshot returns the most recently published epoch snapshot: one
// atomic pointer load, no locks, no allocation — the serving read path.
// The snapshot is immutable; a reader may hold it across any amount of
// concurrent churn and keep seeing the consistent (if stale) state it was
// published from. A snapshot of the initial state is published at
// construction, so ReadSnapshot never returns nil.
//
// Publications happen at quiescence (every AwaitQuiescence that returns
// nil or a *PartitionError publishes first), on the PublishEvery cadence
// when one is configured, and on explicit PublishSnapshot calls.
func (d *DynamicNetwork) ReadSnapshot() *Snapshot { return d.pub.Load() }

// PublishSnapshot captures the current state and publishes it as the new
// epoch, returning the published snapshot. Unlike the cadence publisher it
// does not wait for quiescence: a mid-flight publication is a coherent
// copy of the mirrors (heights still totally order the nodes, so derived
// orientations are acyclic) but may not be destination-oriented yet.
func (d *DynamicNetwork) PublishSnapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.publishLocked()
}

// publisher is the cadence loop behind DynOptions.PublishEvery: every
// tick it publishes the current state if — and only if — the network is
// momentarily quiescent. Gating on quiescence is what gives readers the
// epoch-snapshot contract (every published orientation routes every
// connected node); a network kept permanently busy by churn is published
// by its AwaitQuiescence calls instead.
func (d *DynamicNetwork) publisher(every time.Duration) {
	defer d.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.mu.Lock()
			if !d.stopped && d.inflight.idle() {
				d.publishLocked()
			}
			d.mu.Unlock()
		}
	}
}

// Links returns the snapshot's live neighbours of u in ascending order.
// The slice is shared with the network and with other snapshots, so it
// must not be modified.
func (s *Snapshot) Links(u graph.NodeID) []graph.NodeID {
	if int(u) < 0 || int(u) >= len(s.Heights) {
		return nil
	}
	return s.adj.row(u)
}

// Removed reports whether u had been removed from the network when the
// snapshot was taken.
func (s *Snapshot) Removed(u graph.NodeID) bool {
	return int(u) >= 0 && int(u) < s.dead.Len() && s.dead.Test(int(u))
}

// RouteInto follows strictly decreasing heights from src toward dst and
// returns the path if dst is reached within maxHops links. Heights totally
// order the nodes, so the walk is loop-free by construction; at quiescence
// it reaches the destination from every node in its component.
//
// The path is written into buf (reused from its start, grown as needed; nil
// allocates a fresh one). With a buffer of capacity ≥ path length the walk
// allocates nothing — the contract of the serving read path, pinned by a
// testing.AllocsPerRun regression test. The returned slice aliases buf's
// backing array when it fits.
func (s *Snapshot) RouteInto(src, dst graph.NodeID, maxHops int, buf []graph.NodeID) ([]graph.NodeID, bool) {
	if int(src) < 0 || int(src) >= len(s.Heights) || int(dst) < 0 || int(dst) >= len(s.Heights) {
		return nil, false
	}
	path := append(buf[:0], src)
	cur := src
	for hops := 0; hops <= maxHops; hops++ {
		if cur == dst {
			return path, true
		}
		if hops == maxHops {
			return nil, false
		}
		// Forward to the lowest-height lower neighbour.
		best := cur
		for _, v := range s.adj.row(cur) {
			if s.Heights[v].Less(s.Heights[cur]) && (best == cur || s.Heights[v].Less(s.Heights[best])) {
				best = v
			}
		}
		if best == cur {
			return nil, false
		}
		path = append(path, best)
		cur = best
	}
	return nil, false
}
