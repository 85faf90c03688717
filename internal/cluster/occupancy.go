package cluster

import "vmt/internal/bitset"

// Occupancy is the cluster's placement index: bitsets over server IDs,
// kept current by Server.Place, Server.Remove, MarkFailed and
// MarkRepaired, that let the VMT schedulers answer "fewest jobs of w"
// and "most jobs of w" with word scans instead of a pass over every
// server. The keys are split rather than joint:
//
//   - Jobs(wi, j): servers running exactly j jobs of workload wi;
//   - Busy(b): servers with exactly b busy cores;
//   - Alive(): servers that have not failed.
//
// A place or remove is therefore four bit flips whatever the number of
// workloads, and the index holds (workloads+1) × (cores+1) + 1 rows of
// ⌈N/64⌉ words. Each row carries its population count so queries skip
// empty keys without touching their words.
//
// The index is built on its first query (Cluster.Occupancy); policies
// that never query it — round-robin, coolest-first — never pay for it.
// Like the rest of the job bookkeeping it is single-threaded: only the
// scheduler and fault bands mutate it.
type Occupancy struct {
	built bool
	words int
	cores int
	// jobs[wi] holds workload wi's rows back to back: the servers with
	// j jobs of it are jobs[wi][j*words:(j+1)*words]. busy holds the
	// busy-core rows the same way. One block per key family keeps the
	// index to a handful of allocations.
	jobs    [][]uint64
	jobsPop [][]int
	busy    []uint64
	busyPop []int
	alive   []uint64
}

// Occupancy returns the cluster's placement index, building it on the
// first call and adding rows for workloads interned since the last.
// Call it after Cluster.WorkloadIndex, so the row for a workload the
// caller is about to query exists.
//
//vmt:hotpath
func (c *Cluster) Occupancy() *Occupancy {
	o := &c.occ
	if !o.built || o.rows() < len(c.reg.list) {
		c.buildOccupancy() //vmtlint:allow hotpath built on the first query and grown once per new workload; steady-state queries skip it
	}
	return o
}

// buildOccupancy builds the index from the servers' bookkeeping, or,
// once built, appends the rows of workloads interned since, filled
// from the servers' current counts.
func (c *Cluster) buildOccupancy() {
	o := &c.occ
	if !o.built {
		cores, words := c.cfg.Server.Cores(), bitset.Words(len(c.servers))
		*o = Occupancy{
			built:   true,
			words:   words,
			cores:   cores,
			busy:    make([]uint64, (cores+1)*words),
			busyPop: make([]int, cores+1),
			alive:   make([]uint64, words),
		}
		for _, s := range c.servers {
			bitset.Set(o.Busy(s.busyCores), s.id)
			o.busyPop[s.busyCores]++
			if !s.failed {
				bitset.Set(o.alive, s.id)
			}
		}
	}
	for wi := o.rows(); wi < len(c.reg.list); wi++ {
		o.jobs = append(o.jobs, make([]uint64, (o.cores+1)*o.words))
		o.jobsPop = append(o.jobsPop, make([]int, o.cores+1))
		for _, s := range c.servers {
			j := s.JobsAt(wi)
			bitset.Set(o.Jobs(wi, j), s.id)
			o.jobsPop[wi][j]++
		}
	}
}

// rows returns how many workloads the index covers.
//
//vmt:hotpath
func (o *Occupancy) rows() int { return len(o.jobs) }

// moveJobs moves server id from j to j+delta jobs of workload wi and
// from b to b+delta busy cores: the four flips of one place (+1) or
// remove (−1).
//
//vmt:hotpath
func (o *Occupancy) moveJobs(id, wi, j, b, delta int) {
	bitset.Clear(o.Jobs(wi, j), id)
	bitset.Set(o.Jobs(wi, j+delta), id)
	o.jobsPop[wi][j]--
	o.jobsPop[wi][j+delta]++
	bitset.Clear(o.Busy(b), id)
	bitset.Set(o.Busy(b+delta), id)
	o.busyPop[b]--
	o.busyPop[b+delta]++
}

// Cores returns the per-server core count, the largest job and busy
// key.
//
//vmt:hotpath
func (o *Occupancy) Cores() int { return o.cores }

// Jobs returns the row of servers running exactly j jobs of the
// workload with registry index wi (0 <= j <= Cores). The row is owned
// by the index; callers must not modify it.
//
//vmt:hotpath
func (o *Occupancy) Jobs(wi, j int) []uint64 {
	return o.jobs[wi][j*o.words : (j+1)*o.words : (j+1)*o.words]
}

// JobsPop returns the number of servers in Jobs(wi, j).
//
//vmt:hotpath
func (o *Occupancy) JobsPop(wi, j int) int { return o.jobsPop[wi][j] }

// Busy returns the row of servers with exactly b busy cores
// (0 <= b <= Cores).
//
//vmt:hotpath
func (o *Occupancy) Busy(b int) []uint64 {
	return o.busy[b*o.words : (b+1)*o.words : (b+1)*o.words]
}

// BusyPop returns the number of servers in Busy(b).
//
//vmt:hotpath
func (o *Occupancy) BusyPop(b int) int { return o.busyPop[b] }

// Alive returns the row of servers that have not failed.
//
//vmt:hotpath
func (o *Occupancy) Alive() []uint64 { return o.alive }
