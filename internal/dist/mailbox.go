package dist

// mailboxQueue is the unbounded in-memory FIFO behind a mailbox pump: a
// slice window tracked by a head index rather than re-sliced
// (queue = queue[1:]) on every pop, because re-slicing moves the window's
// base and permanently consumes backing capacity — which degenerates into
// one allocation per message once the initial capacity is used up.
//
// The window is rewound when the queue drains and compacted whenever the
// consumed prefix reaches half the length (amortized O(1) per message), so
// one backing array is reused at the *live* high-water mark even if the
// queue never fully empties, and consumed entries don't pin their
// referents. A drain additionally releases the backing array outright when
// it has grown far beyond the traffic seen since the previous drain
// (mailboxShrinkCap/mailboxShrinkRatio): one message burst must not pin a
// burst-sized buffer for the rest of the run.
type mailboxQueue[M any] struct {
	buf  []M
	head int
	// peak is the high-water mark of len(buf) since the last drain; it is
	// what the shrink heuristic compares against the retained capacity.
	peak int
}

// push appends one message.
func (q *mailboxQueue[M]) push(m M) {
	q.buf = append(q.buf, m)
	if len(q.buf) > q.peak {
		q.peak = len(q.buf)
	}
}

// empty reports whether no message is pending.
func (q *mailboxQueue[M]) empty() bool { return q.head == len(q.buf) }

// front returns the oldest pending message; pop consumes it. Callers must
// check empty first.
func (q *mailboxQueue[M]) front() M { return q.buf[q.head] }

func (q *mailboxQueue[M]) pop() { q.head++ }

// Shrink thresholds of drain: a backing array above mailboxShrinkCap
// entries whose post-burst peak used less than 1/mailboxShrinkRatio of it
// is released rather than reused.
const (
	mailboxShrinkCap   = 1024
	mailboxShrinkRatio = 4
)

// drain resets an emptied queue: references are dropped so consumed
// entries don't pin their referents, the window is rewound, and an
// oversized backing array — capacity beyond mailboxShrinkCap with the
// recent peak far below it — is released to the allocator instead of being
// retained forever at its burst high-water mark.
func (q *mailboxQueue[M]) drain() {
	if q.head == 0 && len(q.buf) == 0 {
		return
	}
	clear(q.buf)
	if cap(q.buf) > mailboxShrinkCap && q.peak*mailboxShrinkRatio < cap(q.buf) {
		q.buf = nil
	} else {
		q.buf = q.buf[:0]
	}
	q.head = 0
	q.peak = 0
}

// compact slides the live window to the front once the consumed prefix
// reaches half the length (and is past a fixed floor), keeping the cost
// amortized O(1) per message while bounding retained garbage.
func (q *mailboxQueue[M]) compact() {
	if q.head > 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

// mailbox pumps messages from a bounded ingress channel into an unbounded
// in-memory queue and hands them to the receiver in FIFO order. One mailbox
// goroutine runs per shard of a shardRuntime, carrying the plane's
// *batch[M]; it exits when stop is closed.
//
// The pump decouples senders from receivers: a shard busy processing a
// batch never blocks its peers' flushes, which is what rules out the
// send/receive deadlock cycles a direct buffered channel mesh between
// shards would allow.
func mailbox[M any](in <-chan M, out chan<- M, stop <-chan struct{}) {
	var q mailboxQueue[M]
	for {
		if q.empty() {
			q.drain()
			select {
			case m := <-in:
				q.push(m)
			case <-stop:
				return
			}
			continue
		}
		q.compact()
		select {
		case m := <-in:
			q.push(m)
		case out <- q.front():
			q.pop()
		case <-stop:
			return
		}
	}
}
