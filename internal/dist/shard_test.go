package dist

import (
	"sync"
	"testing"
	"time"
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
