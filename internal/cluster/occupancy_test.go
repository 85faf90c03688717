package cluster

import (
	"fmt"
	"testing"

	"vmt/internal/bitset"
	"vmt/internal/stats"
	"vmt/internal/workload"
)

// checkOccupancy compares every row and population count of the
// index against a rebuild from the servers' own bookkeeping.
func checkOccupancy(t *testing.T, c *Cluster, when string) {
	t.Helper()
	o := c.Occupancy()
	cores := o.Cores()
	for wi := range c.reg.list {
		for j := 0; j <= cores; j++ {
			pop := 0
			for _, s := range c.servers {
				want := s.JobsAt(wi) == j
				if want {
					pop++
				}
				if bitset.Has(o.Jobs(wi, j), s.id) != want {
					t.Fatalf("%s: Jobs(%d,%d) bit %d = %v, server runs %d", when, wi, j, s.id, !want, s.JobsAt(wi))
				}
			}
			if got := o.JobsPop(wi, j); got != pop || bitset.Count(o.Jobs(wi, j)) != pop {
				t.Fatalf("%s: JobsPop(%d,%d) = %d (count %d), want %d", when, wi, j, got, bitset.Count(o.Jobs(wi, j)), pop)
			}
		}
	}
	for b := 0; b <= cores; b++ {
		pop := 0
		for _, s := range c.servers {
			want := s.BusyCores() == b
			if want {
				pop++
			}
			if bitset.Has(o.Busy(b), s.id) != want {
				t.Fatalf("%s: Busy(%d) bit %d = %v, server has %d busy", when, b, s.id, !want, s.BusyCores())
			}
		}
		if got := o.BusyPop(b); got != pop || bitset.Count(o.Busy(b)) != pop {
			t.Fatalf("%s: BusyPop(%d) = %d, want %d", when, b, got, pop)
		}
	}
	alive := 0
	for _, s := range c.servers {
		if bitset.Has(o.Alive(), s.id) == s.Failed() {
			t.Fatalf("%s: Alive bit %d disagrees with Failed=%v", when, s.id, s.Failed())
		}
		if !s.Failed() {
			alive++
		}
	}
	if bitset.Count(o.Alive()) != alive {
		t.Fatalf("%s: %d alive bits, want %d (tail word leak?)", when, bitset.Count(o.Alive()), alive)
	}
}

// TestOccupancyIndexProperty drives seeded random Place, Remove,
// MarkFailed and MarkRepaired sequences and requires every bitset and
// population count of the occupancy index to equal a rebuild from
// Server state. The index is built part-way through, and workloads
// first appear both before and after the build, so the lazy build and
// the row growth are covered; the sizes put the last server at the
// start, middle and end of a word.
func TestOccupancyIndexProperty(t *testing.T) {
	all := workload.TableI()
	for _, n := range []int{1, 63, 64, 65, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			c, err := New(PaperCluster(n))
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(uint64(n) + 99)
			ops := 4000
			every := 1 + n/20
			buildAt := ops / 4
			for k := 0; k < ops; k++ {
				if k == buildAt {
					checkOccupancy(t, c, "build")
				}
				// The last two workloads only appear after the build.
				pool := all[:3]
				if k > buildAt+ops/4 {
					pool = all
				}
				s := c.servers[rng.Intn(n)]
				w := pool[rng.Intn(len(pool))]
				switch r := rng.Float64(); {
				case r < 0.55:
					if s.FreeCores() > 0 {
						if err := s.Place(w); err != nil {
							t.Fatal(err)
						}
					}
				case r < 0.9:
					if s.Jobs(w) > 0 {
						if err := s.Remove(w); err != nil {
							t.Fatal(err)
						}
					}
				case r < 0.95:
					c.MarkFailed(s.id)
				default:
					c.MarkRepaired(s.id)
				}
				if k > buildAt && k%every == 0 {
					checkOccupancy(t, c, fmt.Sprintf("op %d", k))
				}
			}
			checkOccupancy(t, c, "end")
		})
	}
}
