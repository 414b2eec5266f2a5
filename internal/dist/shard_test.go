package dist

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"linkreversal/internal/workload"
)

// TestInboxConcurrentPuts has several senders each put numbered batches
// into one inbox while its owner waits on the wake channel and takes them,
// as a shard's loop does. Every batch must arrive exactly once and each
// sender's batches in put order, and the owner must never wait with a
// batch in the inbox: a lost wake-up would stall it until the timeout. A
// put to an inbox nobody reads must return.
func TestInboxConcurrentPuts(t *testing.T) {
	const senders, per = 8, 2000
	in := newInbox[[2]int]()
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				in.put(&batch[[2]int]{msgs: [][2]int{{s, i}}})
			}
		}()
	}
	next := make([]int, senders)
	timeout := time.After(30 * time.Second)
	var taken []*batch[[2]int]
	for got := 0; got < senders*per; {
		select {
		case <-in.wake:
		case <-timeout:
			t.Fatalf("owner still waiting with %d of %d batches taken: lost wake-up", got, senders*per)
		}
		taken = in.take(taken)
		for _, b := range taken {
			s, seq := b.msgs[0][0], b.msgs[0][1]
			if seq != next[s] {
				t.Fatalf("sender %d: batch %d arrived, want %d", s, seq, next[s])
			}
			next[s]++
			got++
		}
		clear(taken)
		// Stay busy for a moment, as a shard does while it runs a cascade,
		// so that puts land while the owner is not waiting.
		time.Sleep(50 * time.Microsecond)
	}
	wg.Wait()
	if rest := in.take(nil); len(rest) != 0 {
		t.Fatalf("%d batches left after all %d arrived", len(rest), senders*per)
	}

	unread := newInbox[int]()
	done := make(chan struct{})
	go func() {
		for range per {
			unread.put(new(batch[int]))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("put blocked on an inbox nobody reads")
	}
	if n := len(unread.take(nil)); n != per {
		t.Fatalf("unread inbox holds %d batches, want %d", n, per)
	}
}

// newTestRuntime builds a runtime of shards block-partitioned shards over
// n nodes whose workers the tests drive directly, with no goroutines: the
// test sets each worker's handle and calls drain or receive itself.
func newTestRuntime[M any](n, shards int) (*shardRuntime[M], *tokens) {
	tok := &tokens{onZero: func() {}}
	rt := newShardRuntime[M](newPartitioner(PartitionBlock, n, shards, nil), tok, make(chan struct{}), new(sync.WaitGroup), nil)
	return rt, tok
}

// waiting returns the batches in w's inbox, without taking them.
func waiting[M any](w *worker[M]) []*batch[M] {
	w.in.mu.Lock()
	defer w.in.mu.Unlock()
	return slices.Clone(w.in.q)
}

// TestMidCascadeFlushIsAckClocked drives the sending side of the transport
// on two shards. Shard 0's cascade routes one message to shard 1 and then
// runs more than 2·drainStopCheck local deliveries. The first poll must
// put that message's batch in shard 1's inbox while the cascade still
// runs; a second message for shard 1, routed while the first batch is
// unread, must wait in the outbox, across later polls, for the
// end-of-drain flush. Each put adds exactly one token, and shard 1 gets
// the two messages in the order they were routed.
func TestMidCascadeFlushIsAckClocked(t *testing.T) {
	const last = 2*drainStopCheck + 1 // the cascade's final local message
	const first, second = -1, -2      // the two messages for shard 1
	rt, tok := newTestRuntime[int](2, 2)
	w, peer := rt.workers[0], rt.workers[1]
	sentSecond, checked := false, false
	w.handle = func(m int) {
		if m == 0 {
			w.route(1, first)
		}
		if !sentSecond && len(waiting(peer)) == 1 {
			w.route(1, second)
			sentSecond = true
		}
		if m < last {
			w.route(0, m+1)
			return
		}
		// The cascade's last delivery, past the poll at 2·drainStopCheck.
		checked = true
		if !sentSecond {
			t.Fatal("the first batch did not leave at a poll before the cascade ended")
		}
		if q := waiting(peer); len(q) != 1 || !slices.Equal(q[0].msgs, []int{first}) {
			t.Fatalf("mid-cascade inbox %v, want the first message's batch alone", batchMsgs(q))
		}
		var held []int
		if b := w.out[1]; b != nil {
			held = b.msgs
		}
		if !slices.Equal(held, []int{second}) {
			t.Fatalf("outbox for shard 1 holds %v, want the second message held while the first batch is unread", held)
		}
	}
	w.local = append(w.local, 0)
	if !w.drain() {
		t.Fatal("drain reported a stop")
	}
	if !checked {
		t.Fatal("the cascade never reached its last message")
	}
	if q := waiting(peer); len(q) != 2 || !slices.Equal(q[0].msgs, []int{first}) || !slices.Equal(q[1].msgs, []int{second}) {
		t.Fatalf("shard 1's inbox after the drain = %v, want [[%d] [%d]]", batchMsgs(q), first, second)
	}
	if n := tok.n.Load(); n != 2 {
		t.Errorf("%d tokens after two puts, want 2", n)
	}
	if n := w.unread[1].Load(); n != 2 {
		t.Errorf("unread[1] = %d after two puts, want 2", n)
	}
	if b, r := rt.batches.Load(), rt.remote.Load(); b != 2 || r != 2 {
		t.Errorf("transport counters: %d batches, %d remote; want 2 and 2", b, r)
	}

	// The receiver hands each batch back: the count falls to zero, and
	// shard 1 handles the messages in the order shard 0 routed them.
	var got []int
	peer.handle = func(m int) { got = append(got, m) }
	for _, b := range peer.in.take(nil) {
		if !peer.receive(b) {
			t.Fatal("receive reported a stop")
		}
	}
	if !slices.Equal(got, []int{first, second}) {
		t.Errorf("shard 1 handled %v, want [%d %d]", got, first, second)
	}
	if err := unreadAtRest(rt); err != nil {
		t.Error(err)
	}
	if n := tok.n.Load(); n != 0 {
		t.Errorf("%d tokens after both batches were received, want 0", n)
	}
}

// batchMsgs lists the messages of each batch in q, for failure messages.
func batchMsgs[M any](q []*batch[M]) [][]M {
	out := make([][]M, len(q))
	for i, b := range q {
		out[i] = b.msgs
	}
	return out
}

// TestDrainKeepsOneGeneration runs a 100,000-message chain cascade on one
// shard, each delivery routing the next: the run-queue then holds one
// message at a time, so its two backing arrays stay tiny. A queue that
// kept the whole cascade would grow past 100,000 entries.
func TestDrainKeepsOneGeneration(t *testing.T) {
	const chain = 100_000
	rt, _ := newTestRuntime[int](1, 1)
	w := rt.workers[0]
	next := 0
	w.handle = func(m int) {
		if m != next {
			t.Fatalf("delivered %d, want %d", m, next)
		}
		next++
		if m+1 < chain {
			w.route(0, m+1)
		}
	}
	w.local = append(w.local, 0)
	if !w.drain() {
		t.Fatal("drain reported a stop")
	}
	if next != chain {
		t.Fatalf("delivered %d messages, want %d", next, chain)
	}
	if c := cap(w.local) + cap(w.spare); c >= 64 {
		t.Errorf("run-queue arrays hold %d entries after a chain cascade, want < 64", c)
	}
}

// TestHoldbackRequeueOrder pins the FIFO a holdback relies on: a message
// requeued by its handler goes behind everything already queued, and a
// message routed later goes behind it, across the drain's generations.
func TestHoldbackRequeueOrder(t *testing.T) {
	type msg struct {
		id   int
		hold uint8
	}
	rt, _ := newTestRuntime[msg](1, 1)
	w := rt.workers[0]
	var got []int
	w.handle = func(m msg) {
		if m.hold > 0 {
			m.hold--
			w.local = append(w.local, m) // as shard.process and dynShard.requeue do
			return
		}
		got = append(got, m.id)
		if m.id == 2 {
			w.route(0, msg{id: 4})
		}
	}
	w.local = append(w.local, msg{id: 1, hold: 1}, msg{id: 2}, msg{id: 3})
	if !w.drain() {
		t.Fatal("drain reported a stop")
	}
	if want := []int{2, 3, 1, 4}; !slices.Equal(got, want) {
		t.Errorf("handled %v, want %v", got, want)
	}
}

// unreadAtRest reports an error unless every shard's unread count is zero,
// as it must be whenever no token is outstanding: each batch is handled
// before its token is retired.
func unreadAtRest[M any](rt *shardRuntime[M]) error {
	for _, w := range rt.workers {
		for d := range w.unread {
			if n := w.unread[d].Load(); n != 0 {
				return fmt.Errorf("shard %d: %d batches for shard %d unread at rest", w.id, n, d)
			}
		}
	}
	return nil
}

// TestUnreadZeroAtRest runs static repairs with heavy cross-shard traffic
// under every test configuration and requires every unread count to be
// zero once the run has quiesced and its shards have exited.
// (dynChurnScript checks the same after its dynamic churn.)
func TestUnreadZeroAtRest(t *testing.T) {
	for _, topo := range []*workload.Topology{
		workload.Grid(24, 24),
		workload.Tree(400, 3),
	} {
		in, err := topo.Init()
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range allAlgorithms() {
			for _, opts := range testEngines(t) {
				opts.Partition = PartitionHash // most edges cross shards
				opts, err := opts.withDefaults()
				if err != nil {
					t.Fatal(err)
				}
				c := newRunCore(in, alg, opts, min(opts.Shards, in.Graph().NumNodes()))
				if err := c.run(context.Background()); err != nil {
					t.Fatal(err)
				}
				if c.rt.batches.Load() == 0 {
					t.Errorf("%s/%v/%s: no batch crossed shards", topo.Name, alg, engineName(opts))
				}
				if err := unreadAtRest(c.rt); err != nil {
					t.Errorf("%s/%v/%s: %v", topo.Name, alg, engineName(opts), err)
				}
			}
		}
	}
}

// TestFinishedRunNotPinned requires one collection to free a finished
// run's node table once its caller drops the run. The Go runtime lists
// every sync.Pool until two collections after its last use, so a batch
// pool stored inside the runtime kept the whole run reachable — workers,
// their closures, the node table — for one more collection.
func TestFinishedRunNotPinned(t *testing.T) {
	in := workload.Grid(24, 24).MustInit()
	for _, opts := range testEngines(t) {
		opts.Partition = PartitionHash // most edges cross shards
		opts, err := opts.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		nodes := func() weak.Pointer[nodeTable] {
			c := newRunCore(in, PartialReversal, opts, min(opts.Shards, in.Graph().NumNodes()))
			if err := c.run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if c.rt.batches.Load() == 0 {
				t.Fatalf("%s: no batch crossed shards, so the pool was never used", engineName(opts))
			}
			return weak.Make(c.nodes)
		}()
		runtime.GC()
		if nodes.Value() != nil {
			t.Errorf("%s: a finished run's node table survived a collection", engineName(opts))
		}
	}
}

// TestReleasedRunPinsNoTable checks what RunWith's release leaves to a
// shard goroutine that is late to exit: with the finished runCore itself
// still reachable, the node table must be collectable.
func TestReleasedRunPinsNoTable(t *testing.T) {
	in := workload.Grid(24, 24).MustInit()
	for _, opts := range testEngines(t) {
		opts, err := opts.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		c := newRunCore(in, PartialReversal, opts, min(opts.Shards, in.Graph().NumNodes()))
		if err := c.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		nodes := weak.Make(c.nodes)
		c.release()
		runtime.GC()
		if nodes.Value() != nil {
			t.Errorf("%s: a released run's node table survived a collection", engineName(opts))
		}
		runtime.KeepAlive(c)
	}
}
