package bitset

import (
	"math/rand"
	"testing"
)

// sizes covers the word-boundary cases: empty, one bit shy of a word, one
// word exactly, one bit over, and the same around two words.
var sizes = []int{0, 1, 63, 64, 65, 127, 128}

// refModel mirrors a View against the []bool representation it replaces.
type refModel struct {
	v   View
	ref []bool
	t   *testing.T
}

func (m *refModel) check(ctx string) {
	m.t.Helper()
	all, count := true, 0
	for i, b := range m.ref {
		if got := m.v.Test(i); got != b {
			m.t.Fatalf("%s: Test(%d) = %v, reference %v", ctx, i, got, b)
		}
		if b {
			count++
		} else {
			all = false
		}
	}
	if got := m.v.Count(); got != count {
		m.t.Fatalf("%s: Count() = %d, reference %d", ctx, got, count)
	}
	if got := m.v.AllSet(); got != all {
		m.t.Fatalf("%s: AllSet() = %v, reference %v", ctx, got, all)
	}
	if got := m.v.AnyClear(); got != !all {
		m.t.Fatalf("%s: AnyClear() = %v, reference %v", ctx, got, !all)
	}
}

func TestViewAgainstReference(t *testing.T) {
	for _, n := range sizes {
		for _, off := range []int{0, 1, 37, 64} {
			words := make([]uint64, Words(off+n)+1)
			// Poison the backing array so a view operation that leaks
			// outside its window is caught by the guard checks below.
			for i := range words {
				words[i] = ^uint64(0)
			}
			v := Slice(words, off, n)
			v.ClearAll()
			m := &refModel{v: v, ref: make([]bool, n), t: t}
			m.check("after ClearAll")
			rng := rand.New(rand.NewSource(int64(n)*131 + int64(off)))
			for op := 0; op < 400; op++ {
				if n == 0 {
					break
				}
				i := rng.Intn(n)
				switch rng.Intn(4) {
				case 0:
					v.Set(i)
					m.ref[i] = true
				case 1:
					v.Clear(i)
					m.ref[i] = false
				case 2:
					v.SetAll()
					for j := range m.ref {
						m.ref[j] = true
					}
				case 3:
					v.ClearAll()
					for j := range m.ref {
						m.ref[j] = false
					}
				}
				m.check("after op")
			}
			// No operation may have touched bits outside the window.
			guard := Slice(words, 0, off)
			if guard.Count() != off {
				t.Fatalf("n=%d off=%d: view clobbered bits below its window", n, off)
			}
			tail := Slice(words, off+n, len(words)*WordBits-off-n)
			if !tail.AllSet() {
				t.Fatalf("n=%d off=%d: view clobbered bits above its window", n, off)
			}
		}
	}
}

func TestAdjacentViewsShareBacking(t *testing.T) {
	// Three dense views carved back to back, exactly as newRunNodes carves
	// per-node views within one shard: operations on one must never leak
	// into its neighbours.
	words := make([]uint64, Words(63+64+65))
	a := Slice(words, 0, 63)
	b := Slice(words, 63, 64)
	c := Slice(words, 127, 65)
	b.SetAll()
	if a.Count() != 0 || c.Count() != 0 {
		t.Fatal("SetAll leaked into adjacent views")
	}
	if !b.AllSet() {
		t.Fatal("SetAll incomplete")
	}
	a.SetAll()
	c.SetAll()
	b.ClearAll()
	if !a.AllSet() || !c.AllSet() {
		t.Fatal("ClearAll leaked into adjacent views")
	}
	if b.Count() != 0 {
		t.Fatal("ClearAll incomplete")
	}
}

func TestAlign(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 0}, {1, 64}, {63, 64}, {64, 64}, {65, 128}, {128, 128},
	} {
		if got := Align(tc.in); got != tc.want {
			t.Errorf("Align(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSetAgainstReference(t *testing.T) {
	for _, n := range sizes {
		s := NewSet(n)
		ref := make([]bool, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for op := 0; op < 500; op++ {
			if s.Len() > 0 && rng.Intn(10) > 0 {
				i := rng.Intn(s.Len())
				if rng.Intn(2) == 0 {
					s.Set(i)
					ref[i] = true
				} else {
					s.Clear(i)
					ref[i] = false
				}
			} else {
				// Grow by a bit, crossing word boundaries over the run.
				s.Grow(s.Len() + 1)
				ref = append(ref, false)
			}
			count := 0
			for i, b := range ref {
				if got := s.Test(i); got != b {
					t.Fatalf("n=%d: Test(%d) = %v, reference %v", n, i, got, b)
				}
				if b {
					count++
				}
			}
			if got := s.Count(); got != count {
				t.Fatalf("n=%d: Count() = %d, reference %d", n, got, count)
			}
			// NextSet must enumerate exactly the set bits, in order.
			want := -1
			at := 0
			for j := s.NextSet(0); j != -1; j = s.NextSet(j + 1) {
				for want = at; want < len(ref) && !ref[want]; want++ {
				}
				if want >= len(ref) || want != j {
					t.Fatalf("n=%d: NextSet enumerated %d, reference %d", n, j, want)
				}
				at = want + 1
			}
			for ; at < len(ref); at++ {
				if ref[at] {
					t.Fatalf("n=%d: NextSet missed set bit %d", n, at)
				}
			}
		}
	}
}

// TestSetClone pins that a clone holds the same bits as its source and
// that writes and growth on either side stay invisible to the other.
func TestSetClone(t *testing.T) {
	for _, n := range sizes {
		s := NewSet(n)
		for i := 0; i < n; i += 3 {
			s.Set(i)
		}
		c := s.Clone()
		if c.Len() != n || c.Count() != s.Count() {
			t.Fatalf("n=%d: clone has %d bits, %d set; source %d, %d", n, c.Len(), c.Count(), n, s.Count())
		}
		for i := 0; i < n; i++ {
			if c.Test(i) != s.Test(i) {
				t.Fatalf("n=%d: clone bit %d = %v, source %v", n, i, c.Test(i), s.Test(i))
			}
		}
		want := c.Count()
		for i := 0; i < n; i++ {
			s.Set(i)
		}
		s.Grow(n + 65)
		s.Set(n + 64)
		if c.Count() != want || c.Len() != n {
			t.Fatalf("n=%d: writes to the source changed the clone: %d bits, %d set, want %d, %d", n, c.Len(), c.Count(), n, want)
		}
		c.ClearAll()
		if s.Count() != n+1 {
			t.Fatalf("n=%d: clearing the clone changed the source: %d set, want %d", n, s.Count(), n+1)
		}
	}
}

// FuzzViewOps drives a View and a Set through an arbitrary operation
// sequence against the []bool reference model. The size byte maps onto the
// word-boundary sizes, so the fuzzer exercises every carry/mask edge case.
func FuzzViewOps(f *testing.F) {
	f.Add(3, 17, []byte{0, 1, 2, 3, 0x41, 0x82, 0xC3})
	f.Add(4, 0, []byte{0xFF, 0x00, 0x80})
	f.Add(6, 63, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, sizeIdx, off int, ops []byte) {
		n := sizes[abs(sizeIdx)%len(sizes)]
		off = abs(off) % 130
		words := make([]uint64, Words(off+n)+2)
		for i := range words {
			words[i] = ^uint64(0)
		}
		v := Slice(words, off, n)
		v.ClearAll()
		set := NewSet(n)
		ref := make([]bool, n)
		for _, op := range ops {
			kind, arg := int(op>>6), int(op&0x3f)
			if n == 0 {
				break
			}
			i := arg % n
			switch kind {
			case 0:
				v.Set(i)
				set.Set(i)
				ref[i] = true
			case 1:
				v.Clear(i)
				set.Clear(i)
				ref[i] = false
			case 2:
				v.SetAll()
				for j := range ref {
					ref[j] = true
					set.Set(j)
				}
			case 3:
				v.ClearAll()
				set.ClearAll()
				for j := range ref {
					ref[j] = false
				}
			}
		}
		all, count, next := true, 0, -1
		for i, b := range ref {
			if v.Test(i) != b || set.Test(i) != b {
				t.Fatalf("Test(%d) diverged from reference %v", i, b)
			}
			if b {
				count++
				if next == -1 {
					next = i
				}
			} else {
				all = false
			}
		}
		if v.Count() != count || set.Count() != count {
			t.Fatalf("Count diverged from reference %d", count)
		}
		if v.AllSet() != all {
			t.Fatalf("AllSet diverged from reference %v", all)
		}
		if set.NextSet(0) != next {
			t.Fatalf("NextSet(0) = %d, reference %d", set.NextSet(0), next)
		}
		if tail := Slice(words, off+n, len(words)*WordBits-off-n); !tail.AllSet() {
			t.Fatal("operations leaked above the view window")
		}
		if off > 0 {
			if head := Slice(words, 0, off); head.Count() != off {
				t.Fatal("operations leaked below the view window")
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
