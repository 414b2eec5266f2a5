// Package obs is the engine-deep observability layer: per-shard telemetry
// counters and a flight recorder of recent protocol events, designed to
// cost nothing when disabled.
//
// An *Observer is handed to an engine through dist.Options.Observer (or
// DynOptions.Observer). When that field is nil — the default — the engines
// carry nil *obs.Shard sinks and every hook reduces to a predictable nil
// check, preserving the AllocsPerRun-pinned allocation-free hot path. When
// armed, each engine shard gets its own sink: telemetry is plain atomic
// counters (no locks, no allocation after Attach), and protocol events go
// into a fixed-size lock-free ring buffer (the flight recorder), stamped
// with nanoseconds since Attach.
//
// Event recording is sampled splitmix64-deterministically: whether an event
// is kept depends only on (Seed, kind, node, peer, arg) — the same mixing
// idiom as internal/faults — never on goroutine timing. Protocol confluence
// makes the event multiset a function of (scenario, seed), so the *recorded*
// multiset is reproducible from (scenario, seed) too, even though
// interleaving order and timestamps vary run to run.
//
// Recordings surface three ways: ShardStats snapshots (served as /metrics
// families by internal/serve), Events/Tail dumps (the /debug/events
// endpoint, lrhunt breach artifacts, lrd's SIGQUIT handler), and
// ChromeTrace, which exports per-shard timelines as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev).
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"linkreversal/internal/graph"
	"linkreversal/internal/trace"
)

// EventKind identifies a flight-recorder event type.
type EventKind uint8

const (
	// EvReversal: a node committed a reversal step (Arg = links reversed).
	EvReversal EventKind = iota
	// EvDeliver: a protocol message was delivered to a node (Peer = sender).
	EvDeliver
	// EvAck: the reliable-delivery layer acknowledged a message.
	EvAck
	// EvRetransmit: the adversary dropped a payload and its sender
	// retransmitted it at once, one event per dropped attempt (Arg = seq).
	EvRetransmit
	// EvEpochPublish: the control plane published an epoch snapshot (Arg = epoch).
	EvEpochPublish
	// EvReflect: a TORA reference level reflected at a local minimum (Arg = tau).
	EvReflect
	// EvPartitionDetect: a node detected its component is cut from the
	// destination (Arg = tau of the reflected level).
	EvPartitionDetect
	// EvLinkUp / EvLinkDown: a dynamic link came up or failed at a node.
	EvLinkUp
	EvLinkDown

	numKinds
)

var kindNames = [numKinds]string{
	"reversal", "deliver", "ack", "retransmit",
	"epoch-publish", "reflect", "partition-detect", "link-up", "link-down",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// MarshalJSON emits the kind name, so dumps and breach artifacts read
// without a decoder ring.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

func (k *EventKind) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	for i, name := range kindNames {
		if name == s {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one decoded flight-recorder entry.
type Event struct {
	Seq   uint64       `json:"seq"`   // per-shard ring ticket (monotone within a shard)
	T     int64        `json:"t_ns"`  // nanoseconds since the observer attached
	Shard int          `json:"shard"` // recording shard; -1 = control plane
	Kind  EventKind    `json:"kind"`
	Node  graph.NodeID `json:"node"`
	Peer  graph.NodeID `json:"peer"` // -1 when the event has no peer
	Arg   int64        `json:"arg"`
}

// ShardStats is an atomic snapshot of one shard's telemetry counters.
// Shard -1 is the control-plane sink (epoch publication, erasure).
type ShardStats struct {
	Shard     int   `json:"shard"`
	Steps     int64 `json:"steps"`     // reversal steps committed by nodes on this shard
	Reversals int64 `json:"reversals"` // individual link reversals within those steps
	Delivered int64 `json:"delivered"` // protocol messages delivered to this shard's nodes
	Acks      int64 `json:"acks"`
	// Nacks is always 0: a dropped payload is retransmitted at once, so no
	// loss notification reaches a node.
	//
	// Deprecated: kept only because bench/ reads it; delete it with the
	// next change to bench/.
	Nacks        int64 `json:"nacks"`
	Retransmits  int64 `json:"retransmits"`
	Batches      int64 `json:"batches"`      // cross-shard batches flushed
	BatchMsgs    int64 `json:"batch_msgs"`   // cross-shard messages inside those batches (fill = BatchMsgs/Batches)
	RunQueuePeak int64 `json:"runq_peak"`    // largest intra-shard run-queue generation
	MailboxPeak  int64 `json:"mailbox_peak"` // most batches waiting in the inbox at a wake-up
	BusyNS       int64 `json:"busy_ns"`      // worker nanos spent processing
	IdleNS       int64 `json:"idle_ns"`      // worker nanos spent waiting for input
	Events       int64 `json:"events"`       // protocol events offered to the recorder
	Sampled      int64 `json:"sampled"`      // events actually recorded after sampling
}

// BatchFill is the mean messages per flushed cross-shard batch.
func (s ShardStats) BatchFill() float64 {
	if s.Batches > 0 {
		return float64(s.BatchMsgs) / float64(s.Batches)
	}
	return 0
}

// Observer owns the telemetry sinks and the flight recorder for one engine
// run. Configure the exported fields before handing it to an engine; the
// engine calls Attach once at startup, which resets all sinks. A nil
// *Observer is valid everywhere and records nothing.
type Observer struct {
	// RingSize is the per-shard flight-recorder capacity in events,
	// rounded up to a power of two. 0 means 4096.
	RingSize int
	// Sample keeps 1 in Sample protocol events, decided by a splitmix64
	// hash of (Seed, kind, node, peer, arg) so the recorded multiset is
	// schedule-independent. 0 or 1 keeps every event.
	Sample int
	// Seed salts the sampling hash.
	Seed int64
	// OnDump, when set, is invoked by DumpOn triggers (partition
	// detection, oracle breach) with the full recorded tail. It runs
	// synchronously on the triggering goroutine and must not call back
	// into the network that armed it.
	OnDump func(reason string, events []Event)

	start time.Time
	sinks atomic.Pointer[[]*Shard]
}

// New returns an Observer with default configuration (4096-event rings,
// no sampling).
func New() *Observer { return &Observer{RingSize: 4096, Sample: 1} }

// Attach (re)builds the per-shard sinks for an engine run with the given
// shard count, plus one extra control-plane sink, and restarts the event
// clock. Engines call this once before starting workers.
func (o *Observer) Attach(shards int) {
	if o == nil {
		return
	}
	if shards < 1 {
		shards = 1
	}
	size := o.RingSize
	if size <= 0 {
		size = 4096
	}
	sample := uint64(o.Sample)
	if sample < 1 {
		sample = 1
	}
	sinks := make([]*Shard, shards+1)
	for i := range sinks {
		id := i
		if i == shards {
			id = -1 // control plane
		}
		sinks[i] = &Shard{o: o, id: id, ring: newRing(size), sample: sample, seed: uint64(o.Seed)}
	}
	o.start = time.Now()
	o.sinks.Store(&sinks)
}

func (o *Observer) all() []*Shard {
	if o == nil {
		return nil
	}
	if p := o.sinks.Load(); p != nil {
		return *p
	}
	return nil
}

// Shard returns the sink for engine shard i, or nil if the observer is nil
// or not attached — engines store the result and call it unconditionally.
func (o *Observer) Shard(i int) *Shard {
	s := o.all()
	if i < 0 || i >= len(s)-1 {
		return nil
	}
	return s[i]
}

// Ctl returns the control-plane sink (epoch publication, topology erasure).
func (o *Observer) Ctl() *Shard {
	s := o.all()
	if len(s) == 0 {
		return nil
	}
	return s[len(s)-1]
}

// ShardStats snapshots every sink's counters, engine shards first, the
// control-plane sink (Shard == -1) last.
func (o *Observer) ShardStats() []ShardStats {
	sinks := o.all()
	if len(sinks) == 0 {
		return nil
	}
	out := make([]ShardStats, len(sinks))
	for i, s := range sinks {
		out[i] = ShardStats{
			Shard:        s.id,
			Steps:        s.steps.Load(),
			Reversals:    s.reversals.Load(),
			Delivered:    s.delivered.Load(),
			Acks:         s.acks.Load(),
			Retransmits:  s.retrans.Load(),
			Batches:      s.batches.Load(),
			BatchMsgs:    s.batchMsgs.Load(),
			RunQueuePeak: s.runqPeak.Load(),
			MailboxPeak:  s.mailboxPeak.Load(),
			BusyNS:       s.busyNS.Load(),
			IdleNS:       s.idleNS.Load(),
			Events:       s.events.Load(),
			Sampled:      s.sampled.Load(),
		}
	}
	return out
}

// Events returns the recorded events across all sinks, ordered by
// timestamp. max > 0 keeps only the most recent max events.
func (o *Observer) Events(max int) []Event {
	sinks := o.all()
	if len(sinks) == 0 {
		return nil
	}
	var raw []ringEvent
	var out []Event
	for _, s := range sinks {
		raw = s.ring.snapshot(raw[:0])
		for _, re := range raw {
			out = append(out, decode(s.id, re))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Seq < out[j].Seq
	})
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Tail returns the n most recent events — the slice attached to breach
// reproducers and logged on dumps.
func (o *Observer) Tail(n int) []Event { return o.Events(n) }

// TriggerDump invokes the OnDump hook, if any, with the full event record.
func (o *Observer) TriggerDump(reason string) {
	if o == nil || o.OnDump == nil {
		return
	}
	o.OnDump(reason, o.Events(0))
}

// ChromeTrace writes the recording as Chrome trace-event JSON: one Perfetto
// thread track per engine shard (plus the control plane), instant events on
// each track, and counter tracks for per-shard telemetry.
func (o *Observer) ChromeTrace(w io.Writer) error {
	events := o.Events(0)
	stats := o.ShardStats()
	ces := make([]trace.ChromeEvent, 0, len(events)+2*len(stats))
	trackName := func(shard int) string {
		if shard < 0 {
			return "control plane"
		}
		return fmt.Sprintf("shard %d", shard)
	}
	tid := func(shard int) int { return shard + 2 } // ctl(-1) -> 1, shard 0 -> 2, ...
	for _, st := range stats {
		ces = append(ces, trace.ChromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid(st.Shard),
			Args: map[string]any{"name": trackName(st.Shard)},
		})
	}
	for _, ev := range events {
		ces = append(ces, trace.ChromeEvent{
			Name:  ev.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    float64(ev.T) / 1e3, // microseconds
			PID:   1,
			TID:   tid(ev.Shard),
			Args: map[string]any{
				"node": int(ev.Node), "peer": int(ev.Peer), "arg": ev.Arg,
			},
		})
	}
	for _, st := range stats {
		if st.Shard < 0 {
			continue
		}
		ces = append(ces, trace.ChromeEvent{
			Name: "telemetry", Phase: "C", PID: 1, TID: tid(st.Shard),
			TS: 0,
			Args: map[string]any{
				fmt.Sprintf("shard%d_delivered", st.Shard): st.Delivered,
				fmt.Sprintf("shard%d_steps", st.Shard):     st.Steps,
			},
		})
	}
	return trace.WriteChromeTrace(w, ces)
}

// Shard is the per-engine-shard sink: atomic telemetry counters and a ring
// of recent events. All methods are safe on a nil receiver (no-ops) and
// safe for concurrent use — ShardStats and Events read a sink while its
// shard goroutine writes it, and the control-plane sink is written by
// whichever goroutine publishes an epoch.
type Shard struct {
	o      *Observer
	id     int
	sample uint64
	seed   uint64
	ring   *ring

	steps, reversals, delivered atomic.Int64
	acks, retrans               atomic.Int64
	batches, batchMsgs          atomic.Int64
	runqPeak, mailboxPeak       atomic.Int64
	busyNS, idleNS              atomic.Int64
	events, sampled             atomic.Int64
}

// note offers one protocol event to the recorder; the sampling decision is
// a pure function of (seed, kind, node, peer, arg).
func (s *Shard) note(kind EventKind, node, peer graph.NodeID, arg int64) {
	s.events.Add(1)
	if s.sample > 1 {
		h := mix(mix(mix(s.seed, uint64(kind)), pack32(node, peer)), uint64(arg))
		if h%s.sample != 0 {
			return
		}
	}
	s.sampled.Add(1)
	t := uint64(time.Since(s.o.start))
	s.ring.put(pack32(node, peer), uint64(kind)<<56|t&tsMask, uint64(arg))
}

// Note records an event with no dedicated counter (reflect, detect, epoch
// publish, link churn).
func (s *Shard) Note(kind EventKind, node, peer graph.NodeID, arg int64) {
	if s == nil {
		return
	}
	s.note(kind, node, peer, arg)
}

// Step records a committed reversal step that reversed `targets` links.
func (s *Shard) Step(node graph.NodeID, targets int) {
	if s == nil {
		return
	}
	s.steps.Add(1)
	s.reversals.Add(int64(targets))
	s.note(EvReversal, node, -1, int64(targets))
}

// Deliver records a protocol message delivered to node from peer.
func (s *Shard) Deliver(node, peer graph.NodeID, arg int64) {
	if s == nil {
		return
	}
	s.delivered.Add(1)
	s.note(EvDeliver, node, peer, arg)
}

// Ack records a reliable-delivery acknowledgement.
func (s *Shard) Ack(node, peer graph.NodeID, seq int64) {
	if s == nil {
		return
	}
	s.acks.Add(1)
	s.note(EvAck, node, peer, seq)
}

// Retransmit records one retransmission of a dropped payload.
func (s *Shard) Retransmit(node, peer graph.NodeID, seq int64) {
	if s == nil {
		return
	}
	s.retrans.Add(1)
	s.note(EvRetransmit, node, peer, seq)
}

// Batch records one flushed cross-shard batch carrying n messages.
func (s *Shard) Batch(n int) {
	if s == nil {
		return
	}
	s.batches.Add(1)
	s.batchMsgs.Add(int64(n))
}

// RunQueue raises the high-water mark of the intra-shard run-queue's
// generations: the runtime reports each generation's length once, when it
// starts running it.
func (s *Shard) RunQueue(depth int) {
	if s == nil {
		return
	}
	raiseMax(&s.runqPeak, int64(depth))
}

// Mailbox raises the high-water mark of the batches waiting in the
// shard's inbox when it woke.
func (s *Shard) Mailbox(depth int) {
	if s == nil {
		return
	}
	raiseMax(&s.mailboxPeak, int64(depth))
}

// Busy adds worker time spent processing; Idle adds time spent waiting.
func (s *Shard) Busy(d time.Duration) {
	if s == nil {
		return
	}
	s.busyNS.Add(int64(d))
}

func (s *Shard) Idle(d time.Duration) {
	if s == nil {
		return
	}
	s.idleNS.Add(int64(d))
}

const tsMask = 1<<56 - 1

func pack32(node, peer graph.NodeID) uint64 {
	return uint64(uint32(node))<<32 | uint64(uint32(peer))
}

func decode(shard int, re ringEvent) Event {
	return Event{
		Seq:   re.seq,
		T:     int64(re.w1 & tsMask),
		Shard: shard,
		Kind:  EventKind(re.w1 >> 56),
		Node:  graph.NodeID(int32(re.w0 >> 32)),
		Peer:  graph.NodeID(int32(re.w0)),
		Arg:   int64(re.w2),
	}
}

func raiseMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// mix is the splitmix64 finalizer over h^v — the same mixing idiom
// internal/faults uses for its schedule-independent fault decisions, so
// sampling shares the adversary's determinism argument.
func mix(h, v uint64) uint64 {
	h ^= v
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
