// Package bitset provides word-packed bit vectors for the dist engines'
// per-node views. Two shapes are exposed:
//
//   - View is a fixed-width window into a shared []uint64 backing array,
//     the packed replacement for the flat []bool slot views: a topology's
//     per-node views are carved out of one topology-sized word array, so a
//     view costs one bit per edge endpoint instead of one byte, and
//     whole-view predicates (AllSet, Count) run word-at-a-time instead of
//     slot-at-a-time.
//
//   - Set is a growable bit vector owning its storage, the packed
//     replacement for node-indexed mark slices that must extend when the
//     topology grows.
//
// Neither shape synchronizes. Views carved from the same backing array may
// share boundary words, so two views written by different goroutines race
// unless the carver word-aligns the boundary between their owners — which
// is exactly what newNodeTable lays out at shard-ownership boundaries, so
// each shard can fill and run its own nodes' views.
package bitset

import "math/bits"

// WordBits is the width of one backing word.
const WordBits = 64

// Words returns the number of backing words needed for n bits.
func Words(n int) int { return (n + WordBits - 1) / WordBits }

// Align rounds the bit offset off up to the next word boundary. Carvers
// call it where two adjacent views must not share a word (distinct
// concurrent writers).
func Align(off int) int { return (off + WordBits - 1) &^ (WordBits - 1) }

// View is a window of n bits starting at absolute bit offset off within a
// shared backing array. The zero View is empty and valid.
type View struct {
	w   []uint64
	off int
	n   int
}

// Slice carves the n-bit view starting at bit offset off out of words.
func Slice(words []uint64, off, n int) View {
	return View{w: words, off: off, n: n}
}

// Len returns the number of bits in the view.
func (v View) Len() int { return v.n }

// Test reports bit i.
func (v View) Test(i int) bool {
	b := v.off + i
	return v.w[b>>6]&(1<<(uint(b)&63)) != 0
}

// Set sets bit i.
func (v View) Set(i int) {
	b := v.off + i
	v.w[b>>6] |= 1 << (uint(b) & 63)
}

// Clear clears bit i.
func (v View) Clear(i int) {
	b := v.off + i
	v.w[b>>6] &^= 1 << (uint(b) & 63)
}

// mask returns the portion of word w (an absolute backing-word index) that
// belongs to the view.
func (v View) mask(w int) uint64 {
	m := ^uint64(0)
	if first := v.off >> 6; w == first {
		m &= ^uint64(0) << (uint(v.off) & 63)
	}
	if last := (v.off + v.n - 1) >> 6; w == last {
		m &= ^uint64(0) >> (63 - (uint(v.off+v.n-1) & 63))
	}
	return m
}

// AllSet reports whether every bit of the view is set, scanning whole
// words. An empty view is trivially all-set.
func (v View) AllSet() bool {
	if v.n == 0 {
		return true
	}
	first, last := v.off>>6, (v.off+v.n-1)>>6
	for w := first; w <= last; w++ {
		if m := v.mask(w); v.w[w]&m != m {
			return false
		}
	}
	return true
}

// AnyClear reports whether at least one bit of the view is clear.
func (v View) AnyClear() bool { return !v.AllSet() }

// Count returns the number of set bits, scanning whole words.
func (v View) Count() int {
	if v.n == 0 {
		return 0
	}
	first, last := v.off>>6, (v.off+v.n-1)>>6
	c := 0
	for w := first; w <= last; w++ {
		c += bits.OnesCount64(v.w[w] & v.mask(w))
	}
	return c
}

// ClearAll clears every bit of the view, word-at-a-time.
func (v View) ClearAll() {
	if v.n == 0 {
		return
	}
	first, last := v.off>>6, (v.off+v.n-1)>>6
	for w := first; w <= last; w++ {
		v.w[w] &^= v.mask(w)
	}
}

// SetAll sets every bit of the view, word-at-a-time.
func (v View) SetAll() {
	if v.n == 0 {
		return
	}
	first, last := v.off>>6, (v.off+v.n-1)>>6
	for w := first; w <= last; w++ {
		v.w[w] |= v.mask(w)
	}
}

// Set is a growable bit vector that owns its words. The zero Set is empty
// and ready to use.
type Set struct {
	w []uint64
	n int
}

// NewSet returns a Set of n clear bits.
func NewSet(n int) *Set { return &Set{w: make([]uint64, Words(n)), n: n} }

// Len returns the current length in bits.
func (s *Set) Len() int { return s.n }

// Clone returns an independent copy of s: later writes to either set do not
// show in the other.
func (s *Set) Clone() *Set {
	return &Set{w: append([]uint64(nil), s.w...), n: s.n}
}

// Grow extends the set to n bits (no-op if already at least that long).
// New bits are clear.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	if need := Words(n); need > len(s.w) {
		// Amortize like append: the mark sets grow one node at a time.
		w := make([]uint64, need, max(need, 2*cap(s.w)))
		copy(w, s.w)
		s.w = w
	}
	s.n = n
}

// Test reports bit i.
func (s *Set) Test(i int) bool { return s.w[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (s *Set) Set(i int) { s.w[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.w[i>>6] &^= 1 << (uint(i) & 63) }

// ClearAll clears every bit.
func (s *Set) ClearAll() {
	for i := range s.w {
		s.w[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// none. It skips all-zero words, so iterating a sparse set costs
// O(words), not O(bits).
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i >> 6
	rest := s.w[w] >> (uint(i) & 63)
	if rest != 0 {
		j := i + bits.TrailingZeros64(rest)
		if j < s.n {
			return j
		}
		return -1
	}
	for w++; w < len(s.w); w++ {
		if s.w[w] != 0 {
			j := w<<6 + bits.TrailingZeros64(s.w[w])
			if j < s.n {
				return j
			}
			return -1
		}
	}
	return -1
}
