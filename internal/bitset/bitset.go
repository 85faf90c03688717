// Package bitset holds the word-level helpers behind the scheduler's
// occupancy index: flat []uint64 bitsets over server IDs, where bit i
// lives in word i>>6 at position i&63. The helpers allocate nothing and
// never look outside the words they are handed, so callers size every
// set to Words(n) once and reuse it.
package bitset

import "math/bits"

// Words returns the number of 64-bit words covering n bits.
func Words(n int) int { return (n + 63) >> 6 }

// Set sets bit i.
//
//vmt:hotpath
func Set(b []uint64, i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
//
//vmt:hotpath
func Clear(b []uint64, i int) { b[i>>6] &^= 1 << uint(i&63) }

// Has reports whether bit i is set.
//
//vmt:hotpath
func Has(b []uint64, i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of set bits.
//
//vmt:hotpath
func Count(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountAndNot returns the number of bits set in a but not in b.
//
//vmt:hotpath
func CountAndNot(a, b []uint64) int {
	n := 0
	for k, w := range a {
		n += bits.OnesCount64(w &^ b[k])
	}
	return n
}

// rangeMask returns the bits of word k that fall inside [lo, hi).
//
//vmt:hotpath
func rangeMask(k, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := k << 6; lo > base {
		m <<= uint(lo - base)
	}
	if end := (k + 1) << 6; hi < end {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// And is the intersection A ∧ B ∧ C ∧ D ∧ ¬Not of sets over the same
// IDs, read word by word and never materialized. A nil A–D stands for
// the full set; a nil Not removes nothing. Callers bound every query
// by the number of IDs, so bits past the last ID never matter.
type And struct {
	A, B, C, D []uint64
	Not        []uint64
}

// word returns word k of the intersection.
//
//vmt:hotpath
func (q *And) word(k int) uint64 {
	w := ^uint64(0)
	if q.A != nil {
		w &= q.A[k]
	}
	if q.B != nil {
		w &= q.B[k]
	}
	if q.C != nil {
		w &= q.C[k]
	}
	if q.D != nil {
		w &= q.D[k]
	}
	if q.Not != nil {
		w &^= q.Not[k]
	}
	return w
}

// Next returns the lowest member of q in [from, hi), or -1 if there is
// none.
//
//vmt:hotpath
func (q *And) Next(from, hi int) int {
	if from >= hi {
		return -1
	}
	first, last := from>>6, (hi-1)>>6
	for k := first; k <= last; k++ {
		w := q.word(k)
		if k == first || k == last {
			w &= rangeMask(k, from, hi)
		}
		if w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// FirstWrap returns the first member of q in the rotated order start,
// start+1, …, hi-1, lo, …, start-1 — the visit order of a linear scan
// over [lo, hi) that begins at start and wraps — or -1 if q has no
// member in [lo, hi). Requires lo <= start < hi.
//
//vmt:hotpath
func (q *And) FirstWrap(lo, hi, start int) int {
	if i := q.Next(start, hi); i >= 0 {
		return i
	}
	return q.Next(lo, start)
}
