package bitset

import "testing"

// setOf builds a set of n bits with the given bits set.
func setOf(n int, ids ...int) []uint64 {
	b := make([]uint64, Words(n))
	for _, i := range ids {
		Set(b, i)
	}
	return b
}

// FirstWrap is the rotated-scan tie-break of the scheduler queries;
// the cases pin its word-boundary behavior: start at lo, start at
// hi-1, lo and hi inside one word, ranges straddling words, and bits
// outside [lo, hi) that must be ignored.
func TestFirstWrap(t *testing.T) {
	cases := []struct {
		name          string
		n             int
		set           []int
		lo, hi, start int
		want          int
	}{
		{"start==lo takes lowest", 200, []int{70, 130}, 64, 192, 64, 70},
		{"start==lo exact hit", 200, []int{64, 130}, 64, 192, 64, 64},
		{"start==hi-1 hit at start", 200, []int{191, 70}, 64, 192, 191, 191},
		{"start==hi-1 wraps to lo side", 200, []int{70, 130}, 64, 192, 191, 70},
		{"wrap passes over start", 200, []int{100}, 64, 192, 101, 100},
		{"one word, after start", 64, []int{5, 20}, 3, 30, 10, 20},
		{"one word, wraps", 64, []int{5, 8}, 3, 30, 10, 5},
		{"one word, bits outside range ignored", 64, []int{2, 30, 31}, 3, 30, 10, -1},
		{"straddles word boundary", 130, []int{63, 64}, 60, 70, 64, 64},
		{"crosses boundary after start", 130, []int{63, 65}, 60, 70, 64, 65},
		{"wraps across boundary", 130, []int{62}, 60, 70, 64, 62},
		{"hi ends a word", 128, []int{127}, 100, 128, 110, 127},
		{"hi at tail of last word", 65, []int{64, 0}, 1, 65, 64, 64},
		{"empty set", 128, nil, 0, 128, 5, -1},
		{"single-bit range", 128, []int{77}, 77, 78, 77, 77},
	}
	for _, tc := range cases {
		q := And{A: setOf(tc.n, tc.set...)}
		if got := q.FirstWrap(tc.lo, tc.hi, tc.start); got != tc.want {
			t.Errorf("%s: FirstWrap(%v, [%d,%d), start %d) = %d, want %d",
				tc.name, tc.set, tc.lo, tc.hi, tc.start, got, tc.want)
		}
	}
}

// FirstWrap over an intersection agrees with the linear rotated scan
// it replaces on every (lo, hi, start), for sets crossing two word
// boundaries and every combination of present and absent operands.
func TestFirstWrapMatchesRotatedScan(t *testing.T) {
	const n = 140
	a := setOf(n, 1, 50, 63, 64, 66, 70, 127, 128, 139)
	b := setOf(n, 1, 2, 63, 66, 70, 100, 127, 139)
	not := setOf(n, 70, 139)
	in := func(q *And, i int) bool {
		return (q.A == nil || Has(q.A, i)) && (q.B == nil || Has(q.B, i)) &&
			(q.C == nil || Has(q.C, i)) && (q.D == nil || Has(q.D, i)) &&
			(q.Not == nil || !Has(q.Not, i))
	}
	for _, q := range []And{{A: a}, {A: a, B: b}, {B: b, D: a, Not: not}, {Not: not}, {C: a, Not: b}} {
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				for start := lo; start < hi; start++ {
					want := -1
					for k := 0; k < hi-lo; k++ {
						if i := lo + (start-lo+k)%(hi-lo); in(&q, i) {
							want = i
							break
						}
					}
					if got := q.FirstWrap(lo, hi, start); got != want {
						t.Fatalf("%+v: FirstWrap([%d,%d), start %d) = %d, want %d", q, lo, hi, start, got, want)
					}
				}
			}
		}
	}
}

func TestNextAndCounts(t *testing.T) {
	b := setOf(130, 0, 63, 64, 129)
	if got := Count(b); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	if got := CountAndNot(b, setOf(130, 63, 100)); got != 3 {
		t.Fatalf("CountAndNot = %d, want 3", got)
	}
	set, clear := And{A: b}, And{Not: b}
	for _, tc := range []struct{ from, hi, next, clear int }{
		{0, 130, 0, 1},
		{1, 130, 63, 1},
		{63, 65, 63, -1},
		{65, 129, -1, 65},
		{65, 130, 129, 65},
		{129, 130, 129, -1},
		{5, 5, -1, -1},
	} {
		if got := set.Next(tc.from, tc.hi); got != tc.next {
			t.Errorf("Next(%d, %d) = %d, want %d", tc.from, tc.hi, got, tc.next)
		}
		if got := clear.Next(tc.from, tc.hi); got != tc.clear {
			t.Errorf("Next of complement(%d, %d) = %d, want %d", tc.from, tc.hi, got, tc.clear)
		}
	}
	Clear(b, 64)
	if Has(b, 64) || !Has(b, 63) {
		t.Fatal("Clear touched the wrong bit")
	}
}
