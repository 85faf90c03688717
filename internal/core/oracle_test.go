package core

import (
	"testing"
	"time"

	"vmt/internal/bitset"
	"vmt/internal/cluster"
	"vmt/internal/fault"
	"vmt/internal/sched"
	"vmt/internal/topology"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

// The linear scans below are the reference the occupancy index and
// the per-tick wax classes replaced, kept verbatim in behavior: each
// visits every server of its range in rotated (or ID) order and reads
// the live predicates. The churn oracle replays every index-backed
// choice with them.

// scanLeastBusy is the scan form of groups.leastBusy.
func scanLeastBusy(g *groups, lo, hi int, w workload.Workload, keep func(*cluster.Server) bool) *cluster.Server {
	wi := g.c.WorkloadIndex(w)
	n := hi - lo
	if n <= 0 {
		return nil
	}
	g.cursor++
	start := g.cursor % n
	var best *cluster.Server
	bestJobs := 0
	for i := 0; i < n; i++ {
		s := g.c.Server(lo + (start+i)%n)
		if s.FreeCores() == 0 || (keep != nil && !keep(s)) {
			continue
		}
		j := s.JobsAt(wi)
		if best == nil || j < bestJobs ||
			(j == bestJobs && s.BusyCores() < best.BusyCores()) {
			best, bestJobs = s, j
		}
	}
	return best
}

// scanMostBusyWith is the scan form of groups.mostBusyWith.
func scanMostBusyWith(g *groups, lo, hi int, w workload.Workload, keep func(*cluster.Server) bool) *cluster.Server {
	wi := g.c.WorkloadIndex(w)
	n := hi - lo
	if n <= 0 {
		return nil
	}
	g.cursor++
	start := g.cursor % n
	var best *cluster.Server
	bestJobs := 0
	for i := 0; i < n; i++ {
		s := g.c.Server(lo + (start+i)%n)
		j := s.JobsAt(wi)
		if j == 0 || (keep != nil && !keep(s)) {
			continue
		}
		if best == nil || j > bestJobs {
			best, bestJobs = s, j
		}
	}
	return best
}

// liveMolten is the molten class read straight from the reports.
func liveMolten(wa *WaxAware, s *cluster.Server) bool {
	return wa.melted(s) && s.AirTempC() >= wa.pmtC
}

// liveCanMeltMore is the Section III-B placement predicate.
func liveCanMeltMore(wa *WaxAware, s *cluster.Server) bool { return !liveMolten(wa, s) }

// scanMeltTarget is the scan form of WaxAware.meltTarget, with the
// explicit source exclusion the classes make implicit.
func scanMeltTarget(wa *WaxAware, w workload.Workload, excludeID int) *cluster.Server {
	keep := func(s *cluster.Server) bool {
		return s.ID() != excludeID && liveCanMeltMore(wa, s)
	}
	base := min(wa.effBase, wa.g.hotSize)
	if s := scanLeastBusy(&wa.g, 0, base, w, keep); s != nil {
		return s
	}
	for i := base; i < wa.g.hotSize; i++ {
		s := wa.g.c.Server(i)
		if s.FreeCores() > 0 && keep(s) {
			return s
		}
	}
	return nil
}

// scanKeepsWarm is the surplus-power test of the rebalancing scans.
func scanKeepsWarm(wa *WaxAware, src *cluster.Server, w workload.Workload) bool {
	return !(src.PowerW()-w.PerCorePowerW()*wa.powerScale < wa.keepWarmPowerW(src))
}

// scanPickShed is the scan form of WaxAware.pickShed.
func scanPickShed(wa *WaxAware) (move, bool) {
	for i := 0; i < wa.g.hotSize; i++ {
		src := wa.g.c.Server(i)
		if !wa.melted(src) || src.AirTempC() < wa.pmtC {
			continue
		}
		w, ok := src.LargestJob(workload.Hot)
		if !ok || !scanKeepsWarm(wa, src, w) {
			continue
		}
		dst := scanMeltTarget(wa, w, src.ID())
		if dst == nil {
			return move{}, false
		}
		return move{src: src, dst: dst, w: w}, true
	}
	return move{}, false
}

// scanPickClear is the scan form of WaxAware.pickClear.
func scanPickClear(wa *WaxAware) (move, bool) {
	for i := wa.effBase; i < wa.g.hotSize; i++ {
		e := wa.g.c.Server(i)
		if !liveCanMeltMore(wa, e) {
			continue
		}
		w, ok := e.LargestJob(workload.Cold)
		if !ok {
			continue
		}
		for j := 0; j < wa.g.hotSize; j++ {
			d := wa.g.c.Server(j)
			if d.ID() != e.ID() && d.FreeCores() > 0 && liveMolten(wa, d) {
				return move{src: e, dst: d, w: w}, true
			}
		}
		return move{}, false
	}
	return move{}, false
}

// scanPickSwap is the scan form of WaxAware.pickSwap.
func scanPickSwap(wa *WaxAware) (move, bool) {
	for i := 0; i < wa.g.hotSize; i++ {
		src := wa.g.c.Server(i)
		if !liveMolten(wa, src) {
			continue
		}
		hw, ok := src.LargestJob(workload.Hot)
		if !ok || !scanKeepsWarm(wa, src, hw) {
			continue
		}
		for j := wa.effBase; j < wa.g.hotSize; j++ {
			e := wa.g.c.Server(j)
			if e.ID() == src.ID() || !liveCanMeltMore(wa, e) {
				continue
			}
			if cw, ok := e.LargestJob(workload.Cold); ok {
				return move{src: src, dst: e, w: hw, back: cw}, true
			}
		}
	}
	return move{}, false
}

// scanOracle replays index-backed decisions with the scans. wa is the
// VMT-WA instance whose classes the filters name (nil for VMT-TA).
type scanOracle struct {
	t      *testing.T
	wa     *WaxAware
	checks [opSwap + 1]int
	moves  int
	fails  int
}

// installOracle routes every decision through o for the rest of the
// test.
func installOracle(t *testing.T, wa *WaxAware) *scanOracle {
	o := &scanOracle{t: t, wa: wa}
	decisionHook = o.check
	t.Cleanup(func() { decisionHook = nil })
	return o
}

// keepFor maps a class filter back to the live predicate it caches.
func (o *scanOracle) keepFor(keep []uint64) func(*cluster.Server) bool {
	if keep == nil {
		return nil
	}
	wa := o.wa
	switch {
	case wa != nil && &keep[0] == &wa.moltenSet[0]:
		return func(s *cluster.Server) bool { return liveMolten(wa, s) }
	case wa != nil && &keep[0] == &wa.canMeltSet[0]:
		return func(s *cluster.Server) bool { return liveCanMeltMore(wa, s) }
	case wa != nil && &keep[0] == &wa.unmeltedSet[0]:
		return func(s *cluster.Server) bool { return !wa.melted(s) }
	}
	o.t.Fatalf("query filter names no known class")
	return nil
}

func (o *scanOracle) fail(format string, args ...any) {
	o.t.Helper()
	if o.fails++; o.fails <= 10 {
		o.t.Errorf(format, args...)
	}
}

func (o *scanOracle) check(d decision) {
	o.t.Helper()
	o.checks[d.op]++
	if d.wa != nil {
		o.checkClasses(d.wa)
	}
	probe := *d.g
	probe.cursor = d.cursor
	switch d.op {
	case opLeastBusy, opMostBusyWith:
		var want *cluster.Server
		if d.op == opLeastBusy {
			want = scanLeastBusy(&probe, d.lo, d.hi, d.w, o.keepFor(d.keep))
		} else {
			want = scanMostBusyWith(&probe, d.lo, d.hi, d.w, o.keepFor(d.keep))
		}
		if want != d.got {
			o.fail("op %d [%d,%d) %s cursor %d: index chose %v, scan %v", d.op, d.lo, d.hi, d.w.Name, d.cursor, id(d.got), id(want))
		}
	default:
		wa := *d.wa
		wa.g = probe
		var want move
		var ok bool
		got := d.mv
		switch d.op {
		case opMeltTarget:
			want.dst, ok = scanMeltTarget(&wa, d.w, -1), true
			got = move{dst: d.got}
			d.ok = true
		case opShed:
			want, ok = scanPickShed(&wa)
		case opClear:
			want, ok = scanPickClear(&wa)
		case opSwap:
			want, ok = scanPickSwap(&wa)
		}
		if ok != d.ok || want != got {
			o.fail("op %d: index picked %v/%v→%v (%v), scan %v/%v→%v (%v)", d.op,
				id(got.src), got.w.Name, id(got.dst), d.ok, id(want.src), want.w.Name, id(want.dst), ok)
		}
		if ok && d.op != opMeltTarget {
			o.moves++
		}
		probe = wa.g
	}
	if probe.cursor != d.g.cursor {
		o.fail("op %d: cursor advanced to %d, scan to %d", d.op, d.g.cursor, probe.cursor)
	}
}

// checkClasses asserts the cached classes equal the live predicates.
func (o *scanOracle) checkClasses(wa *WaxAware) {
	o.t.Helper()
	for _, s := range wa.g.c.Servers() {
		id, melted, molten := s.ID(), wa.melted(s), liveMolten(wa, s)
		if bitset.Has(wa.meltedSet, id) != melted || bitset.Has(wa.unmeltedSet, id) == melted ||
			bitset.Has(wa.moltenSet, id) != molten || bitset.Has(wa.canMeltSet, id) == molten {
			o.fail("server %d: cached wax class is stale", id)
		}
	}
}

func id(s *cluster.Server) int {
	if s == nil {
		return -1
	}
	return s.ID()
}

// shifted starts a job source offset hours in, so a short run reaches
// the daily peak.
type shifted struct {
	src    workload.JobSource
	offset time.Duration
}

func (s shifted) At(now time.Duration) float64 { return s.src.At(now + s.offset) }
func (s shifted) Horizon() time.Duration       { return 0 }

// TestIndexMatchesScanUnderChurn is the differential oracle for the
// occupancy index and VMT-WA's wax classes: VMT-TA, VMT-WA and the
// preserving policy run through the load manager on a stepped cluster
// for 1,200 ticks across the first daily peak, under scheduled and
// stochastic crashes (one landing in the same fault tick as a repair),
// a rack trip, a Byzantine melt liar the guard quarantines, a silent
// melt liar, and override directives — and every index-backed choice
// is replayed with the linear scan and must pick the same server. A
// VMT-WA leg under the query-level stream manager covers departures
// that query the classes after the fault band and before Tick.
func TestIndexMatchesScanUnderChurn(t *testing.T) {
	const (
		servers = 96
		ticks   = 1200
		step    = time.Minute
	)
	tr, err := trace.Generate(trace.PaperTwoDay(), step)
	if err != nil {
		t.Fatal(err)
	}
	src := shifted{tr, 10 * time.Hour}
	mix := workload.PaperMix()
	taskMix := func() *workload.Mix {
		m, err := workload.NewMix(
			workload.MixEntry{Workload: workload.WebSearch, Share: 0.3},
			workload.MixEntry{Workload: workload.DataCaching, Share: 0.3},
			workload.MixEntry{Workload: workload.VideoEncoding, Share: 0.2},
			workload.MixEntry{Workload: workload.VirusScan, Share: 0.2},
		)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}()
	legs := []struct {
		name    string
		sched   func(c *cluster.Cluster) (sched.Scheduler, *WaxAware, error)
		manager func(c *cluster.Cluster, s sched.Scheduler) (reconciler, *workload.Mix, error)
	}{
		{"vmt-ta", newTA, loadManager(mix, src)},
		{"vmt-wa", newWA, loadManager(mix, src)},
		{"vmt-preserve", newPreserving, loadManager(mix, src)},
		{"vmt-wa-stream", newWA, func(c *cluster.Cluster, s sched.Scheduler) (reconciler, *workload.Mix, error) {
			m, err := sched.NewStreamManager(c, taskMix, src, s, sched.DefaultTaskDurations(), 5)
			return m, taskMix, err
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			cfg := cluster.PaperCluster(servers)
			cfg.InletStdevC = 1
			cfg.Seed = 7
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inner, wa, err := leg.sched(c)
			if err != nil {
				t.Fatal(err)
			}
			o := installOracle(t, wa)
			ov, err := sched.NewOverride(c, inner)
			if err != nil {
				t.Fatal(err)
			}
			m, mix, err := leg.manager(c, ov)
			if err != nil {
				t.Fatal(err)
			}
			plan := &fault.Plan{
				Seed: 11,
				Crashes: []fault.Crash{
					{Server: 5, AtMin: 300, RepairAfterMin: 200},
					{Server: 70, AtMin: 500, RepairAfterMin: 150}, // lands with server 5's repair
					{Server: 3, AtMin: 620, RepairAfterMin: 240},
				},
				Stochastic: &fault.Stochastic{RatePerHour: 0.02, RepairAfterMin: 60},
				Topology:   &topology.Spec{ServersPerRack: 8, RacksPerRow: 4, RowsPerZone: 1},
				Domains: []fault.DomainFault{
					{Kind: topology.DomainRack, Index: 2, AtMin: 660, RepairAfterMin: 120},
				},
				Byzantine: []fault.ByzantineFault{
					{Server: 10, Kind: fault.ByzMelt, StartMin: 400, Bias: 0.5, Jitter: 0.3},
					{Server: 40, Kind: fault.ByzMelt, StartMin: 450, Bias: 0.7},
					{Server: 30, Kind: fault.ByzMelt, StartMin: 350, Bias: 0.3, Jitter: 0.1},
				},
			}
			if err := plan.ValidateFor(servers); err != nil {
				t.Fatal(err)
			}
			inj := fault.NewInjector(plan, c, m, nil)
			guard := sched.NewGuard(c, mix, step, nil)
			for k := 0; k <= ticks; k++ {
				now := time.Duration(k) * step
				if k > 0 {
					if _, err := c.Step(step); err != nil {
						t.Fatal(err)
					}
					if err := inj.Tick(now, step); err != nil {
						t.Fatal(err)
					}
					guard.Tick(now)
				}
				if k%40 == 0 {
					ov.Direct(workload.WebSearch.Name, (k*7)%servers)
					ov.Direct(workload.DataCaching.Name, (k*13)%servers)
				}
				if err := m.Reconcile(now); err != nil {
					t.Fatal(err)
				}
				if o.fails > 0 {
					t.Fatalf("index diverged from the scan by tick %d", k)
				}
			}
			if inj.Crashes() < 20 || inj.Repairs() < 10 || inj.DomainTrips() != 1 {
				t.Fatalf("fault plan under-exercised: %d crashes, %d repairs, %d trips",
					inj.Crashes(), inj.Repairs(), inj.DomainTrips())
			}
			if guard.Quarantined() == 0 || ov.Overridden() == 0 {
				t.Fatalf("no quarantine (%d) or no override (%d)", guard.Quarantined(), ov.Overridden())
			}
			if o.checks[opLeastBusy] == 0 || o.checks[opMostBusyWith] == 0 {
				t.Fatalf("queries unexercised: %v", o.checks)
			}
			if wa != nil && (o.checks[opMeltTarget] == 0 || o.moves == 0) {
				t.Fatalf("wax-aware picks unexercised: %v, %d moves", o.checks, o.moves)
			}
			t.Logf("%v decisions checked, %d rebalancing moves, %d crashes", o.checks, o.moves, inj.Crashes())
		})
	}
}

// reconciler is the job-population manager a churn leg drives; both
// sched managers implement it.
type reconciler interface {
	Reconcile(now time.Duration) error
	fault.Host
}

func loadManager(mix *workload.Mix, src workload.JobSource) func(*cluster.Cluster, sched.Scheduler) (reconciler, *workload.Mix, error) {
	return func(c *cluster.Cluster, s sched.Scheduler) (reconciler, *workload.Mix, error) {
		m, err := sched.NewLoadManager(c, mix, src, s)
		return m, mix, err
	}
}

func newTA(c *cluster.Cluster) (sched.Scheduler, *WaxAware, error) {
	ta, err := NewThermalAware(c, Config{GV: 22})
	return ta, nil, err
}

func newWA(c *cluster.Cluster) (sched.Scheduler, *WaxAware, error) {
	wa, err := NewWaxAware(c, Config{GV: 22})
	return wa, wa, err
}

func newPreserving(c *cluster.Cluster) (sched.Scheduler, *WaxAware, error) {
	p, err := NewPreserving(c, Config{GV: 22}, 9*time.Hour, 0.3)
	if err != nil {
		return nil, nil, err
	}
	return p, p.wa, nil
}
