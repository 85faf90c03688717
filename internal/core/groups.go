// Package core implements the paper's primary contribution: Virtual
// Melting Temperature job placement. Two policies are provided —
// thermal aware (VMT-TA, Section III-A) and wax aware (VMT-WA,
// Section III-B) — both built on the hot/cold grouping of Equations 1
// and 2:
//
//	hot_group_size  = GV/PMT × num_servers     (Eq. 1)
//	cold_group_size = num_servers − hot_group  (Eq. 2)
//
// Hot-class jobs are concentrated in the hot group so its servers
// exceed the wax's physical melting temperature (PMT) and store heat,
// even when the cluster-average temperature never could — a lower,
// "virtual" melting temperature.
package core

import (
	"fmt"
	"math"

	"vmt/internal/bitset"
	"vmt/internal/cluster"
	"vmt/internal/sched"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// HotGroupSize evaluates Equation 1, clamped to [0, numServers].
func HotGroupSize(gv, pmtC float64, numServers int) int {
	if pmtC <= 0 {
		return 0
	}
	n := int(math.Round(gv / pmtC * float64(numServers)))
	if n < 0 {
		n = 0
	}
	if n > numServers {
		n = numServers
	}
	return n
}

// groups tracks the hot/cold partition over a cluster. Servers with ID
// < hotSize form the hot group; the paper notes the groups need not be
// physically contiguous, so using the ID prefix loses no generality
// while keeping heat maps legible (hot group at the bottom, as in
// Figure 14).
type groups struct {
	c       *cluster.Cluster
	hotSize int
	// cursor rotates tie-breaking across scans: without it, "lowest
	// ID wins" hands every ±1 leftover job to the same few servers,
	// and that systematic bias (≈0.5 °C) smears per-server melt state
	// far more than the paper's uniform groups.
	cursor int
}

func (g *groups) isHot(s *cluster.Server) bool { return s.ID() < g.hotSize }

// sizeForAlive maps a target of alive hot servers to an ID-prefix
// length: the smallest prefix containing target alive (non-failed)
// servers. With no failures this is the identity (clamped to the
// cluster size), so fault-free runs never pay the scan; with failures
// the hot group stretches past crashed IDs so the policy keeps its
// intended count of working hot servers.
func (g *groups) sizeForAlive(target int) int {
	n := g.c.Len()
	if target <= 0 {
		return 0
	}
	if target > n {
		target = n
	}
	if g.c.FailedServers() == 0 {
		return target
	}
	alive := 0
	for i := 0; i < n; i++ {
		if !g.c.Server(i).Failed() {
			alive++
			if alive == target {
				return i + 1
			}
		}
	}
	return n
}

// leastBusy returns the best placement target with a free core among
// servers [lo,hi) in class keep (a bitset over server IDs, such as
// VMT-WA's wax classes; nil keeps every server): fewest jobs of w
// first (even per-workload spread keeps server thermal compositions
// uniform within a group), then fewest busy cores, with ties rotating.
// Returns nil if none qualify.
//
// The choice walks the cluster's occupancy index rather than the
// servers: jobs-of-w keys j ascending, then busy-core keys b ≥ j
// ascending, skipping keys whose population is zero or whose
// candidates Jobs(w, j) ∧ Alive ∧ keep miss the range. The first key
// pair whose candidate set Jobs(w, j) ∧ Busy(b) ∧ Alive ∧ keep meets
// [lo,hi) holds exactly the servers the linear scan ranks best, and
// among those the scan keeps the first it visits from lo + cursor%n
// with wrap — the member FirstWrap returns. A server with b < Cores
// has a free core, so keys stop below Cores. Each query over a
// non-empty range advances the cursor by exactly one, found or not.
//
//vmt:hotpath
func (g *groups) leastBusy(lo, hi int, w workload.Workload, keep []uint64) *cluster.Server {
	wi := g.c.WorkloadIndex(w)
	n := hi - lo
	if n <= 0 {
		return nil
	}
	cursor := g.cursor
	g.cursor++
	start := lo + g.cursor%n
	o := g.c.Occupancy()
	cores := o.Cores()
	var best *cluster.Server
	for j := 0; j < cores && best == nil; j++ {
		if o.JobsPop(wi, j) == 0 {
			continue
		}
		if level := (bitset.And{A: o.Jobs(wi, j), B: o.Alive(), C: keep}); level.Next(lo, hi) < 0 {
			continue
		}
		for b := j; b < cores; b++ {
			if o.BusyPop(b) == 0 {
				continue
			}
			q := bitset.And{A: o.Jobs(wi, j), B: o.Busy(b), C: o.Alive(), D: keep}
			if id := q.FirstWrap(lo, hi, start); id >= 0 {
				best = g.c.Servers()[id]
				break
			}
		}
	}
	if decisionHook != nil {
		decisionHook(decision{op: opLeastBusy, g: g, cursor: cursor, lo: lo, hi: hi, w: w, keep: keep, got: best})
	}
	return best
}

// mostBusyWith returns the server in [lo,hi) and class keep running w
// with the most jobs of w (ties rotating). Like the scan it replaces,
// it checks neither liveness nor free cores. The index walk visits
// jobs-of-w keys from Cores down to 1 and returns the first member in
// rotated order of the first Jobs(w, j) ∧ keep that meets the range.
//
//vmt:hotpath
func (g *groups) mostBusyWith(lo, hi int, w workload.Workload, keep []uint64) *cluster.Server {
	wi := g.c.WorkloadIndex(w)
	n := hi - lo
	if n <= 0 {
		return nil
	}
	cursor := g.cursor
	g.cursor++
	start := lo + g.cursor%n
	o := g.c.Occupancy()
	var best *cluster.Server
	// One pass settles the common empty case (no spilled job to evict)
	// instead of one pass per populated jobs key.
	if running := (bitset.And{A: keep, Not: o.Jobs(wi, 0)}); running.Next(lo, hi) >= 0 {
		for j := o.Cores(); j > 0 && best == nil; j-- {
			if o.JobsPop(wi, j) == 0 {
				continue
			}
			q := bitset.And{A: o.Jobs(wi, j), B: keep}
			if id := q.FirstWrap(lo, hi, start); id >= 0 {
				best = g.c.Servers()[id]
			}
		}
	}
	if decisionHook != nil {
		decisionHook(decision{op: opMostBusyWith, g: g, cursor: cursor, lo: lo, hi: hi, w: w, keep: keep, got: best})
	}
	return best
}

// firstFree returns the lowest-ID server in [lo,hi) and class keep
// with a free core (alive and below Cores busy), or nil: the
// fill-first order of VMT-WA's extension region and the destination
// search of its cold-job clearing.
//
//vmt:hotpath
func (g *groups) firstFree(lo, hi int, keep []uint64) *cluster.Server {
	o := g.c.Occupancy()
	q := bitset.And{A: o.Alive(), B: keep, Not: o.Busy(o.Cores())}
	if id := q.Next(lo, hi); id >= 0 {
		return g.c.Servers()[id]
	}
	return nil
}

// decisionOp names an index-backed choice.
type decisionOp uint8

const (
	opLeastBusy decisionOp = iota
	opMostBusyWith
	opMeltTarget
	opShed
	opClear
	opSwap
)

// decision is one index-backed choice, as the differential oracle
// replays it: the group state and cursor before the choice, the query
// arguments, and what the index picked.
type decision struct {
	op     decisionOp
	g      *groups
	cursor int
	lo, hi int
	w      workload.Workload
	keep   []uint64
	got    *cluster.Server
	// wa and mv carry VMT-WA's meltTarget and rebalancing picks; ok
	// is false when the rebalancing step found nothing to move.
	wa *WaxAware
	mv move
	ok bool
}

// decisionHook, when non-nil, observes every index-backed choice
// before it is acted on. Only the differential oracle
// (oracle_test.go) sets it, to replay each choice with the linear
// scans the index replaced; production runs leave it nil and pay one
// nil check per query.
var decisionHook func(d decision)

// Config carries the knobs shared by both VMT policies.
type Config struct {
	// GV is the grouping value of Equation 1.
	GV float64
	// WaxThreshold is the reported melt fraction above which VMT-WA
	// considers a server "fully melted" (the paper fixes 0.98;
	// Figure 17 sweeps it). VMT-TA ignores it.
	WaxThreshold float64
	// OracleWaxState makes VMT-WA read ground-truth melt fractions
	// instead of the per-server lookup-table estimates — an ablation
	// quantifying what perfect wax-state knowledge would buy.
	OracleWaxState bool
	// MigrationBudgetFrac caps VMT-WA's per-tick job migrations as a
	// fraction of the cluster's cores; zero selects the default 0.25.
	// An ablation knob for the rebalancing granularity.
	MigrationBudgetFrac float64
	// Metrics, when non-nil, receives scheduler instrumentation:
	// sched_hot_group_resizes, sched_threshold_trips (servers crossing
	// the wax threshold), and sched_migrations (VMT-WA rebalancing
	// moves). Purely observational — placement decisions never read it.
	Metrics *telemetry.Registry
}

// DefaultWaxThreshold is the paper's operating point.
const DefaultWaxThreshold = 0.98

// Validate reports whether the configuration is usable for a cluster
// of the given PMT.
func (cfg Config) Validate() error {
	if cfg.GV <= 0 {
		return fmt.Errorf("core: GV must be positive, got %v", cfg.GV)
	}
	if cfg.WaxThreshold < 0 || cfg.WaxThreshold > 1 {
		return fmt.Errorf("core: wax threshold %v out of [0,1]", cfg.WaxThreshold)
	}
	if cfg.MigrationBudgetFrac < 0 || cfg.MigrationBudgetFrac > 1 {
		return fmt.Errorf("core: migration budget fraction %v out of [0,1]", cfg.MigrationBudgetFrac)
	}
	return nil
}

// Interface checks.
var (
	_ sched.Scheduler = (*ThermalAware)(nil)
	_ sched.Scheduler = (*WaxAware)(nil)
)
