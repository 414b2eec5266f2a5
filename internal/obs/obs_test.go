package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"linkreversal/internal/graph"
)

// TestNilSafety pins the zero-cost-when-off contract's API half: every
// method must be a no-op on a nil Observer and a nil Shard, because the
// engines call them unconditionally on unarmed runs.
func TestNilSafety(t *testing.T) {
	var o *Observer
	o.Attach(4)
	o.TriggerDump("nothing")
	if o.Shard(0) != nil || o.Ctl() != nil {
		t.Error("nil observer handed out a sink")
	}
	if got := o.ShardStats(); got != nil {
		t.Errorf("nil observer stats = %v, want nil", got)
	}
	if got := o.Events(0); got != nil {
		t.Errorf("nil observer events = %v, want nil", got)
	}

	var s *Shard
	s.Note(EvReversal, 1, 2, 3)
	s.Step(1, 2)
	s.Deliver(1, 2, 3)
	s.Ack(1, 2, 3)
	s.Retransmit(1, 2, 3)
	s.Batch(7)
	s.RunQueue(7)
	s.Mailbox(7)
	s.Busy(time.Second)
	s.Idle(time.Second)

	// Attached observer, but an out-of-range shard index: also nil.
	o2 := New()
	o2.Attach(2)
	if o2.Shard(2) != nil { // index 2 is the ctl slot, not an engine shard
		t.Error("Shard(shards) must not expose the control-plane sink")
	}
	if o2.Shard(-1) != nil {
		t.Error("Shard(-1) must be nil")
	}
	if o2.Ctl() == nil || o2.Ctl().id != -1 {
		t.Error("Ctl() must be the -1 sink")
	}
}

// TestCountersAndEvents drives one sink through every hook and checks the
// snapshot and the decoded record.
func TestCountersAndEvents(t *testing.T) {
	o := New()
	o.RingSize = 64
	o.Attach(3)
	s := o.Shard(1)

	s.Step(5, 3)
	s.Deliver(5, 4, 9)
	s.Ack(5, 4, 1)
	s.Retransmit(5, 4, 2)
	s.Batch(7)
	s.RunQueue(5)
	s.RunQueue(3) // must not lower the peak
	s.Mailbox(2)
	s.Busy(3 * time.Millisecond)
	s.Idle(5 * time.Millisecond)
	o.Ctl().Note(EvEpochPublish, 0, -1, 42)

	stats := o.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats len = %d, want 3 shards + ctl", len(stats))
	}
	if stats[3].Shard != -1 {
		t.Fatalf("trailing entry shard = %d, want -1", stats[3].Shard)
	}
	st := stats[1]
	want := ShardStats{
		Shard: 1, Steps: 1, Reversals: 3, Delivered: 1,
		Acks: 1, Retransmits: 1, Batches: 1,
		BatchMsgs: 7, RunQueuePeak: 5, MailboxPeak: 2,
		BusyNS: int64(3 * time.Millisecond), IdleNS: int64(5 * time.Millisecond),
		Events: 4, Sampled: 4,
	}
	if st != want {
		t.Errorf("shard 1 stats\n got %+v\nwant %+v", st, want)
	}
	if got := st.BatchFill(); got != 7 {
		t.Errorf("BatchFill = %v", got)
	}

	events := o.Events(0)
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5 (4 on shard 1, 1 on ctl)", len(events))
	}
	// The control-plane event decodes with its full coordinates.
	var pub *Event
	for i := range events {
		if events[i].Kind == EvEpochPublish {
			pub = &events[i]
		}
	}
	if pub == nil || pub.Shard != -1 || pub.Node != 0 || pub.Peer != -1 || pub.Arg != 42 {
		t.Errorf("epoch-publish event = %+v", pub)
	}
	// Negative peers survive the 32-bit packing (sign extension).
	for _, ev := range events {
		if ev.Kind == EvReversal && ev.Peer != -1 {
			t.Errorf("reversal peer = %d, want -1", ev.Peer)
		}
	}
	// Tail trims from the front.
	tail := o.Tail(2)
	if len(tail) != 2 {
		t.Fatalf("Tail(2) len = %d", len(tail))
	}
}

// TestRingWraparound checks the overwrite-oldest contract: a ring of
// capacity c holds exactly the last c events, in order.
func TestRingWraparound(t *testing.T) {
	o := New()
	o.RingSize = 8 // already a power of two
	o.Attach(1)
	s := o.Shard(0)
	const total = 100
	for i := 0; i < total; i++ {
		s.Deliver(graph.NodeID(i), -1, int64(i))
	}
	events := o.Events(0)
	if len(events) != 8 {
		t.Fatalf("after wrap: %d events, want 8", len(events))
	}
	for i, ev := range events {
		wantArg := int64(total - 8 + i)
		if ev.Arg != wantArg || int(ev.Node) != int(wantArg) {
			t.Errorf("event %d = node %d arg %d, want %d", i, ev.Node, ev.Arg, wantArg)
		}
	}
	if st := o.ShardStats()[0]; st.Events != total || st.Sampled != total {
		t.Errorf("events=%d sampled=%d, want %d", st.Events, st.Sampled, total)
	}
}

// TestConcurrentWritersAndReaders hammers one sink from many goroutines
// while snapshots run concurrently — the multi-writer ring must stay
// race-free (run under -race) and every decoded event must be one that
// some writer actually produced.
func TestConcurrentWritersAndReaders(t *testing.T) {
	o := New()
	o.RingSize = 128
	o.Attach(1)
	s := o.Shard(0)

	const writers, perWriter = 8, 500
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	readWG.Add(1)
	go func() { // concurrent reader
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range o.Events(0) {
				if ev.Kind != EvDeliver || int64(ev.Node) != ev.Arg {
					t.Errorf("torn event decoded: %+v", ev)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				n := graph.NodeID(w*perWriter + i)
				s.Deliver(n, -1, int64(n))
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if st := o.ShardStats()[0]; st.Delivered != writers*perWriter {
		t.Errorf("delivered = %d, want %d", st.Delivered, writers*perWriter)
	}
	events := o.Events(0)
	if len(events) != 128 {
		t.Errorf("final ring holds %d events, want full 128", len(events))
	}
}

// TestSamplingDeterminism pins the flight recorder's reproducibility
// claim: which events survive sampling depends only on (Seed, kind, node,
// peer, arg) — not on arrival order, not on which shard recorded them.
func TestSamplingDeterminism(t *testing.T) {
	type key struct {
		kind       EventKind
		node, peer graph.NodeID
		arg        int64
	}
	mk := func(i int) key {
		return key{EvDeliver, graph.NodeID(i % 17), graph.NodeID(i % 5), int64(i)}
	}
	record := func(order []int, shards int) map[key]int {
		o := New()
		o.RingSize = 4096
		o.Sample = 3
		o.Seed = 99
		o.Attach(shards)
		for j, i := range order {
			k := mk(i)
			o.Shard(j%shards).Note(k.kind, k.node, k.peer, k.arg)
		}
		got := map[key]int{}
		for _, ev := range o.Events(0) {
			got[key{ev.Kind, ev.Node, ev.Peer, ev.Arg}]++
		}
		return got
	}

	const n = 300
	fwd := make([]int, n)
	rev := make([]int, n)
	for i := range fwd {
		fwd[i], rev[i] = i, n-1-i
	}
	a := record(fwd, 1)
	b := record(rev, 4) // reversed order, different shard layout
	if len(a) == 0 || len(a) == n {
		t.Fatalf("sampling kept %d of %d events; want a strict subset", len(a), n)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("sampled multisets diverged:\n a=%v\n b=%v", a, b)
	}
	// A different seed keeps a different subset.
	o := New()
	o.Sample = 3
	o.Seed = 100
	o.Attach(1)
	for _, i := range fwd {
		k := mk(i)
		o.Shard(0).Note(k.kind, k.node, k.peer, k.arg)
	}
	c := map[key]int{}
	for _, ev := range o.Events(0) {
		c[key{ev.Kind, ev.Node, ev.Peer, ev.Arg}]++
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("seed change did not change the sampled subset")
	}
}

// TestEventKindJSON round-trips kinds by name.
func TestEventKindJSON(t *testing.T) {
	for k := EventKind(0); k < numKinds; k++ {
		raw, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back EventKind
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if back != k {
			t.Errorf("round trip %v -> %s -> %v", k, raw, back)
		}
	}
	var bad EventKind
	if err := json.Unmarshal([]byte(`"quantum"`), &bad); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestChromeTrace checks the export is loadable trace-event JSON with one
// named track per sink and every recorded instant present.
func TestChromeTrace(t *testing.T) {
	o := New()
	o.Attach(2)
	o.Shard(0).Step(1, 2)
	o.Shard(1).Deliver(3, 1, 0)
	o.Ctl().Note(EvEpochPublish, 0, -1, 7)

	var buf bytes.Buffer
	if err := o.ChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	names := map[string]bool{}
	instants := 0
	for _, ev := range tr.TraceEvents {
		switch ev.Phase {
		case "M":
			names[fmt.Sprint(ev.Args["name"])] = true
		case "i":
			instants++
			if ev.TID < 1 {
				t.Errorf("instant on tid %d; control plane must map to 1", ev.TID)
			}
		}
	}
	for _, want := range []string{"shard 0", "shard 1", "control plane"} {
		if !names[want] {
			t.Errorf("missing thread_name track %q (have %v)", want, names)
		}
	}
	if instants != 3 {
		t.Errorf("instants = %d, want 3", instants)
	}
}

// TestEventsOrdered checks the cross-shard merge sorts by timestamp.
func TestEventsOrdered(t *testing.T) {
	o := New()
	o.Attach(4)
	for i := 0; i < 200; i++ {
		o.Shard(i%4).Deliver(graph.NodeID(i), -1, int64(i))
	}
	events := o.Events(0)
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].T < events[j].T }) {
		t.Error("merged events are not timestamp-ordered")
	}
}
