package core

import (
	"time"

	"vmt/internal/bitset"
	"vmt/internal/cluster"
	"vmt/internal/sched"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// WaxAware is VMT with wax aware job placement (VMT-WA, Section
// III-B). It schedules like VMT-TA until hot-group wax saturates:
// every scheduling period it scans each server's *reported* melt state
// (the per-server lookup-table estimator, not ground truth), counts
// the servers above the wax threshold, and rebuilds the hot group as
// the Equation-1 minimum plus one cold-group server per fully melted
// server — keeping melted servers loaded (so their wax stays molten)
// while steering fresh hot load onto newly added servers with
// unmelted wax.
type WaxAware struct {
	g   groups
	cfg Config
	// baseHot is the fault-free Equation-1 minimum; effBase is the
	// capacity-loss-aware minimum actually in effect this tick. With
	// no crashed servers effBase == baseHot, so fault-free runs are
	// bit-identical to the pre-topology behavior. When whole domains
	// disappear, Equation 1 is re-evaluated over the surviving
	// capacity — the hot fraction is a property of the fleet that
	// exists, not the fleet that was provisioned.
	baseHot int
	effBase int
	pmtC    float64
	// kAirWPerK and powerScale are hoisted spec scalars; reading them
	// through Config() would copy the whole spec struct once per
	// rebalancing probe.
	kAirWPerK  float64
	powerScale float64

	// Optional instruments (nil-safe) plus the last observed state
	// they diff against. prevMelted starts empty so the first tick's
	// melted servers (normally none) count as trips.
	resizes    *telemetry.Counter
	trips      *telemetry.Counter
	migrations *telemetry.Counter
	fallbacks  *telemetry.Counter
	prevMelted []uint64

	// degraded[i] marks servers whose melt estimate cannot be trusted
	// this tick: the server is crashed, its estimate has gone stale
	// (sensor dropout past DefaultMaxEstimateAge), or the reported
	// fraction is garbage. Degraded servers read as "not melted" so
	// VMT-WA falls back to VMT-TA-style even placement for them
	// instead of acting on bad data. Refreshed by refreshHealth.
	degraded []bool

	// meltedSet and moltenSet are the per-tick wax classes, one bit
	// per server: meltedSet is the melted predicate, moltenSet is
	// melted with the air at or above the PMT. unmeltedSet and
	// canMeltSet are their complements, kept so every class is a
	// plain query filter. They read only reports (which move with the
	// cluster's ReportEpoch) and the degraded set (which moves in
	// refreshHealth), so buildClasses runs at the end of refreshHealth
	// and again, via syncClasses, whenever the epoch has moved since —
	// a physics step, or the fault band rewriting reports before
	// Evacuate or a stream manager's departures query them ahead of
	// the next Tick.
	meltedSet, unmeltedSet []uint64
	moltenSet, canMeltSet  []uint64
	// classEpoch is one past the report epoch of the last build, so
	// the zero value means "never built" and the first query builds.
	classEpoch uint64

	// hotFrom and coldFrom are where one rebalanceMelted call resumes
	// its source scans (see rebalanceMelted).
	hotFrom, coldFrom int
}

// DefaultMaxEstimateAge is how old a melt estimate may grow (no
// successful sensor reading) before VMT-WA stops trusting it and
// degrades that server to thermal-aware placement.
const DefaultMaxEstimateAge = 5 * time.Minute

// NewWaxAware builds a VMT-WA scheduler over c.
func NewWaxAware(c *cluster.Cluster, cfg Config) (*WaxAware, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WaxThreshold == 0 { //vmtlint:allow floateq zero-value "unset" sentinel, exact by construction
		cfg.WaxThreshold = DefaultWaxThreshold
	}
	if cfg.MigrationBudgetFrac == 0 { //vmtlint:allow floateq zero-value "unset" sentinel, exact by construction
		cfg.MigrationBudgetFrac = 0.25
	}
	pmt := c.Config().Material.MeltTempC
	base := HotGroupSize(cfg.GV, pmt, c.Len())
	words := bitset.Words(c.Len())
	wa := &WaxAware{
		g:           groups{c: c, hotSize: base},
		cfg:         cfg,
		baseHot:     base,
		effBase:     base,
		pmtC:        pmt,
		kAirWPerK:   c.Config().Server.AirConductanceWPerK,
		powerScale:  c.Config().Server.PowerScale,
		resizes:     cfg.Metrics.Counter("sched_hot_group_resizes"),
		trips:       cfg.Metrics.Counter("sched_threshold_trips"),
		migrations:  cfg.Metrics.Counter("sched_migrations"),
		fallbacks:   cfg.Metrics.Counter("sched_estimate_fallbacks"),
		degraded:    make([]bool, c.Len()),
		prevMelted:  make([]uint64, words),
		meltedSet:   make([]uint64, words),
		unmeltedSet: make([]uint64, words),
		moltenSet:   make([]uint64, words),
		canMeltSet:  make([]uint64, words),
	}
	return wa, nil
}

// Name implements sched.Scheduler.
func (wa *WaxAware) Name() string { return "vmt-wa" }

// HotGroupSize returns the current (dynamic) hot group size.
func (wa *WaxAware) HotGroupSize() int { return wa.g.hotSize }

// BaseHotGroupSize returns the Equation-1 minimum.
func (wa *WaxAware) BaseHotGroupSize() int { return wa.baseHot }

// SetGV retunes the grouping value in place: the Equation-1 minimum is
// re-evaluated and the next Tick rebuilds the dynamic group from it.
func (wa *WaxAware) SetGV(gv float64) {
	wa.cfg.GV = gv
	wa.baseHot = HotGroupSize(gv, wa.pmtC, wa.g.c.Len())
	wa.effBase = wa.effectiveBase()
	if wa.g.hotSize < wa.effBase {
		wa.g.hotSize = wa.effBase
	}
}

// effectiveBase returns the Equation-1 minimum over the surviving
// capacity: identical to baseHot with no failures (the common case
// pays one counter read), re-derived from the alive count otherwise.
func (wa *WaxAware) effectiveBase() int {
	failed := wa.g.c.FailedServers()
	if failed == 0 {
		return wa.baseHot
	}
	return HotGroupSize(wa.cfg.GV, wa.pmtC, wa.g.c.Len()-failed)
}

// IsHot reports whether server s currently belongs to the hot group.
func (wa *WaxAware) IsHot(s *cluster.Server) bool { return wa.g.isHot(s) }

// melted reports whether the scheduler considers s fully melted: its
// reported melt fraction exceeds the wax threshold. A degraded server
// (crashed, stale, or garbage estimate) always reads as not melted —
// the graceful-degradation rule that turns VMT-WA into VMT-TA for the
// affected servers. Decisions read it through the melted and molten
// classes; buildClasses is its only caller on the scheduling path.
func (wa *WaxAware) melted(s *cluster.Server) bool {
	if id := s.ID(); id < len(wa.degraded) && wa.degraded[id] {
		return false
	}
	frac := s.ReportedMeltFrac()
	if wa.cfg.OracleWaxState {
		frac = s.MeltFrac()
	}
	return frac >= wa.cfg.WaxThreshold
}

// refreshHealth recomputes the degraded set, and the wax classes
// over it. A healthy-to-degraded transition increments
// sched_estimate_fallbacks. With the oracle ablation only crashes
// degrade a server (ground truth cannot go stale).
func (wa *WaxAware) refreshHealth() {
	servers := wa.g.c.Servers()
	for i, s := range servers {
		d := s.Failed()
		if !d && !wa.cfg.OracleWaxState {
			if s.ReportsQuarantined() {
				// The guard's cross-checks caught this server lying
				// about its reports; distrust its melt state until the
				// quarantine lifts.
				d = true
			} else if s.Estimator().StaleFor() > DefaultMaxEstimateAge {
				d = true
			} else if frac := s.ReportedMeltFrac(); frac < -0.01 || frac > 1.01 {
				d = true
			}
		}
		if d && !wa.degraded[i] {
			wa.fallbacks.Inc()
		}
		wa.degraded[i] = d
	}
	wa.buildClasses()
}

// buildClasses recomputes the wax classes from the current reports
// and degraded set. A server outside molten can melt more wax or keep
// molten wax melted — it is below the threshold or below the melting
// temperature — which is the Section III-B placement predicate
// canMeltSet holds.
func (wa *WaxAware) buildClasses() {
	for _, set := range [][]uint64{wa.meltedSet, wa.unmeltedSet, wa.moltenSet, wa.canMeltSet} {
		clear(set)
	}
	for i, s := range wa.g.c.Servers() {
		melted := wa.melted(s)
		if melted {
			bitset.Set(wa.meltedSet, i)
		} else {
			bitset.Set(wa.unmeltedSet, i)
		}
		if melted && s.AirTempC() >= wa.pmtC {
			bitset.Set(wa.moltenSet, i)
		} else {
			bitset.Set(wa.canMeltSet, i)
		}
	}
	wa.classEpoch = wa.g.c.ReportEpoch() + 1
}

// syncClasses builds the classes if they were never built or reports
// may have moved since the last build.
func (wa *WaxAware) syncClasses() {
	if wa.classEpoch != wa.g.c.ReportEpoch()+1 {
		wa.buildClasses()
	}
}

// Tick implements sched.Scheduler: restart from the Equation-1
// minimum and grow the hot group by one server per fully melted
// server, never shrinking while those servers stay melted (cooling a
// melted server would release its stored heat mid-peak). After
// resizing, surplus load is migrated off fully melted servers — they
// keep "just enough load to keep the wax melted" — onto hot-group
// servers that can still store heat, which is what lets VMT-WA keep
// melting after the initial hot group saturates (Figure 14).
func (wa *WaxAware) Tick(time.Duration) {
	wa.refreshHealth()
	meltedCount := bitset.Count(wa.meltedSet)
	// A trip is a server crossing the threshold since the last tick,
	// counted even when another server drops back in the same tick.
	if trips := bitset.CountAndNot(wa.meltedSet, wa.prevMelted); trips > 0 {
		wa.trips.Add(uint64(trips))
	}
	copy(wa.prevMelted, wa.meltedSet)
	wa.effBase = wa.effectiveBase()
	size := wa.effBase + meltedCount
	if size > wa.g.c.Len() {
		size = wa.g.c.Len()
	}
	// Under fault injection the prefix stretches past crashed servers
	// so the group keeps its intended count of working machines;
	// fault-free this is the identity.
	size = wa.g.sizeForAlive(size)
	if size != wa.g.hotSize {
		wa.resizes.Inc()
	}
	wa.g.hotSize = size
	wa.rebalanceMelted()
}

// keepWarmPowerW returns the power that holds server s just above the
// melting temperature at steady state — the "just enough load" level
// for a fully melted server. A +0.5 °C margin guards against the wax
// refreezing (and dumping its stored heat) on small load dips.
func (wa *WaxAware) keepWarmPowerW(s *cluster.Server) float64 {
	return (wa.pmtC + 0.5 - s.InletTempC()) * wa.kAirWPerK
}

// rebalanceMelted migrates load after the hot group saturates: surplus
// hot jobs leave fully melted servers (which keep just enough load to
// stay above the melting temperature) and concentrate on extension
// servers; the cold jobs those extension servers were running move
// onto the melted servers' freed cores, where their heat does minimal
// damage (the wax there is already molten). Near peak utilization the
// cluster has almost no free cores, so this hot-for-cold swap is what
// actually drives extension servers above the melting temperature.
// Migration preserves global job counts, so the load manager's
// bookkeeping is unaffected.
//
// The per-tick migration budget (MigrationBudgetFrac of the cores)
// bounds scheduler churn; the handover completes over a few ticks,
// matching the paper's observation that VMT-WA extends the hot group
// at a visible granularity (Figure 14).
//
// Each pick returns the first qualifying source in ID order, and
// within one call the classes, hot group and base are fixed, so the
// scans resume where the last pick stopped instead of restarting at
// the front. Molten servers before hotFrom have no hot job to spare;
// only a cold job landing on one (clearOneCold's destination) can
// change that, so clearOneCold pulls hotFrom back to it. Extension
// servers before coldFrom run no cold job, and no move gives one a
// cold job, so coldFrom only advances.
func (wa *WaxAware) rebalanceMelted() {
	wa.hotFrom, wa.coldFrom = 0, wa.effBase
	for budget := int(float64(wa.g.c.TotalCores()) * wa.cfg.MigrationBudgetFrac); budget > 0; {
		moved := false
		if wa.shedOneHot() {
			budget--
			moved = true
			wa.migrations.Inc()
		}
		if budget > 0 && wa.clearOneCold() {
			budget--
			moved = true
			wa.migrations.Inc()
		}
		if !moved && wa.swapOne() {
			// Fully packed cluster: neither side has a free core to
			// bootstrap the gradual handover, so exchange one hot job
			// for one cold job atomically.
			budget--
			moved = true
			wa.migrations.Inc()
		}
		if !moved {
			return
		}
	}
}

// move is one rebalancing migration: a job of w leaves src for dst
// and, for a swap, a job of back travels from dst to src. The picks
// walk the wax classes in ascending ID order over the current hot
// group, as the scans they replace did. Sources are molten and
// destinations are not (or the reverse for clearOneCold), so a server
// is never its own destination without an explicit ID check.
type move struct {
	src, dst *cluster.Server
	w, back  workload.Workload
}

// decide reports a rebalancing pick to the differential oracle hook.
func (wa *WaxAware) decide(op decisionOp, cursor int, mv move, ok bool) {
	if decisionHook != nil {
		decisionHook(decision{op: op, g: &wa.g, cursor: cursor, wa: wa, mv: mv, ok: ok})
	}
}

// keepsWarm reports whether src stays at keep-warm power after losing
// one job of w; draining it further would refreeze the wax and
// release stored heat in the middle of the peak.
func (wa *WaxAware) keepsWarm(src *cluster.Server, w workload.Workload) bool {
	return !(src.PowerW()-w.PerCorePowerW()*wa.powerScale < wa.keepWarmPowerW(src))
}

// swapOne exchanges one hot job on a melted keep-warm-surplus server
// for one cold job on an extension server, without needing any free
// core. Reports whether an exchange happened.
func (wa *WaxAware) swapOne() bool {
	cursor := wa.g.cursor
	mv, ok := wa.pickSwap()
	wa.decide(opSwap, cursor, mv, ok)
	if !ok {
		return false
	}
	if mv.src.Remove(mv.w) != nil {
		return false
	}
	if mv.dst.Remove(mv.back) != nil {
		_ = mv.src.Place(mv.w) // roll back; should not happen
		return false
	}
	return mv.dst.Place(mv.w) == nil && mv.src.Place(mv.back) == nil
}

// pickSwap returns the first molten hot-group server with a hot job to
// spare and the first extension server that can melt more and runs a
// cold job. The destination does not depend on the source, so once
// one source qualifies the answer is settled either way.
func (wa *WaxAware) pickSwap() (move, bool) {
	servers, hot := wa.g.c.Servers(), wa.g.hotSize
	molten, canMelt := bitset.And{A: wa.moltenSet}, bitset.And{A: wa.canMeltSet}
	for i := molten.Next(wa.hotFrom, hot); i >= 0; i = molten.Next(i+1, hot) {
		src := servers[i]
		hw, ok := wa.largestJob(src, workload.Hot)
		if !ok || !wa.keepsWarm(src, hw) {
			continue
		}
		wa.hotFrom = i
		for j := canMelt.Next(wa.coldFrom, hot); j >= 0; j = canMelt.Next(j+1, hot) {
			if cw, ok := wa.largestJob(servers[j], workload.Cold); ok {
				wa.coldFrom = j
				return move{src: src, dst: servers[j], w: hw, back: cw}, true
			}
		}
		wa.coldFrom = hot
		return move{}, false
	}
	wa.hotFrom = hot
	return move{}, false
}

// shedOneHot moves one hot job from a fully melted server with surplus
// power to the current melt target. Reports whether a move happened.
func (wa *WaxAware) shedOneHot() bool {
	cursor := wa.g.cursor
	mv, ok := wa.pickShed()
	wa.decide(opShed, cursor, mv, ok)
	return ok && mv.src.Remove(mv.w) == nil && mv.dst.Place(mv.w) == nil
}

// pickShed returns the first molten hot-group server with a hot job to
// spare, paired with the melt target for that job.
func (wa *WaxAware) pickShed() (move, bool) {
	servers, hot := wa.g.c.Servers(), wa.g.hotSize
	molten := bitset.And{A: wa.moltenSet}
	for i := molten.Next(wa.hotFrom, hot); i >= 0; i = molten.Next(i+1, hot) {
		src := servers[i]
		w, ok := wa.largestJob(src, workload.Hot)
		if !ok || !wa.keepsWarm(src, w) {
			continue
		}
		wa.hotFrom = i
		dst := wa.meltTarget(w)
		if dst == nil {
			return move{}, false
		}
		return move{src: src, dst: dst, w: w}, true
	}
	wa.hotFrom = hot
	return move{}, false
}

// clearOneCold moves one cold job off the extension server currently
// being filled, onto a melted hot-group server with a free core (where
// extra heat is thermally harmless), making room for hot load.
func (wa *WaxAware) clearOneCold() bool {
	cursor := wa.g.cursor
	mv, ok := wa.pickClear()
	wa.decide(opClear, cursor, mv, ok)
	if !ok || mv.src.Remove(mv.w) != nil || mv.dst.Place(mv.w) != nil {
		return false
	}
	wa.hotFrom = min(wa.hotFrom, mv.dst.ID())
	return true
}

// pickClear returns the first extension server that can melt more and
// still runs a cold job (those already converted to hot load are
// skipped; the next one is filled), paired with the first molten
// hot-group server with a free core.
func (wa *WaxAware) pickClear() (move, bool) {
	servers, hot := wa.g.c.Servers(), wa.g.hotSize
	canMelt := bitset.And{A: wa.canMeltSet}
	for i := canMelt.Next(wa.coldFrom, hot); i >= 0; i = canMelt.Next(i+1, hot) {
		w, ok := wa.largestJob(servers[i], workload.Cold)
		if !ok {
			continue
		}
		wa.coldFrom = i
		dst := wa.g.firstFree(0, hot, wa.moltenSet)
		if dst == nil {
			return move{}, false
		}
		return move{src: servers[i], dst: dst, w: w}, true
	}
	wa.coldFrom = hot
	return move{}, false
}

// largestJob returns the workload of the given class with the most
// jobs on s (name-ordered ties, via the cluster's allocation-free
// scan).
func (wa *WaxAware) largestJob(s *cluster.Server, class workload.Class) (workload.Workload, bool) {
	return s.LargestJob(class)
}

// Place implements sched.Scheduler using the Section III-B cascade.
func (wa *WaxAware) Place(w workload.Workload) (*cluster.Server, error) {
	wa.syncClasses()
	if w.Class == workload.Hot {
		return wa.placeHot(w)
	}
	return wa.placeCold(w)
}

// meltTarget returns the hot-group server that should receive hot load
// to maximize wax melting, or nil if none qualifies. Within the base
// (Equation-1) group, load spreads evenly across servers that can
// still melt wax, exactly like VMT-TA. Within the extension region,
// load is *concentrated* fill-first in ID order: a freshly added
// server only melts wax if it is driven above the melting temperature,
// so spreading the surplus thinly would melt nothing (Section III-B:
// "moves the additional load to the newly added server").
func (wa *WaxAware) meltTarget(w workload.Workload) *cluster.Server {
	wa.syncClasses()
	cursor := wa.g.cursor
	base := wa.effBase
	if base > wa.g.hotSize {
		base = wa.g.hotSize
	}
	s := wa.g.leastBusy(0, base, w, wa.canMeltSet)
	if s == nil {
		s = wa.g.firstFree(base, wa.g.hotSize, wa.canMeltSet)
	}
	if decisionHook != nil {
		decisionHook(decision{op: opMeltTarget, g: &wa.g, cursor: cursor, w: w, got: s, wa: wa})
	}
	return s
}

func (wa *WaxAware) placeHot(w workload.Workload) (*cluster.Server, error) {
	n := wa.g.c.Len()
	// 1. A hot-group server that can melt more wax (below the wax
	//    threshold or below the melting temperature).
	if s := wa.meltTarget(w); s != nil {
		return s, nil
	}
	// 2. Extend the hot group from the cold group sequentially until
	//    it includes such a server (sudden load spikes).
	for wa.g.hotSize < n {
		wa.g.hotSize++
		id := wa.g.hotSize - 1
		if added := wa.g.c.Server(id); added.FreeCores() > 0 && bitset.Has(wa.canMeltSet, id) {
			return added, nil
		}
	}
	// 3. Corner case with every server in the hot group: any server
	//    below the melted threshold, then any remaining server.
	if s := wa.g.leastBusy(0, n, w, wa.unmeltedSet); s != nil {
		return s, nil
	}
	if s := wa.g.leastBusy(0, n, w, nil); s != nil {
		return s, nil
	}
	return nil, sched.ErrNoCapacity
}

func (wa *WaxAware) placeCold(w workload.Workload) (*cluster.Server, error) {
	n := wa.g.c.Len()
	// 1. The cold group.
	if s := wa.g.leastBusy(wa.g.hotSize, n, w, nil); s != nil {
		return s, nil
	}
	// 2. A hot-group server already above the melted threshold and the
	//    melting temperature — minimal thermal impact.
	if s := wa.g.leastBusy(0, wa.g.hotSize, w, wa.moltenSet); s != nil {
		return s, nil
	}
	// 3. Any remaining hot-group server.
	if s := wa.g.leastBusy(0, wa.g.hotSize, w, nil); s != nil {
		return s, nil
	}
	return nil, sched.ErrNoCapacity
}

// SelectRemoval implements sched.Scheduler. Falling load sheds first
// from servers whose eviction least disturbs stored heat: spilled jobs
// in the wrong group, then hot-group servers that are not melting
// anyway (below the melting temperature), then the most-loaded server
// in the job's group — so melted servers keep just enough load to
// stay molten.
func (wa *WaxAware) SelectRemoval(w workload.Workload) (*cluster.Server, error) {
	wa.syncClasses()
	n := wa.g.c.Len()
	if w.Class == workload.Hot {
		// Spilled hot jobs in the cold group first.
		if s := wa.g.mostBusyWith(wa.g.hotSize, n, w, nil); s != nil {
			return s, nil
		}
		// Then the same servers placements target (those still able to
		// melt wax): minute-scale churn cycles within that set, so
		// fully melted servers keep the load holding their wax molten.
		if s := wa.g.mostBusyWith(0, wa.g.hotSize, w, wa.canMeltSet); s != nil {
			return s, nil
		}
		if s := wa.g.mostBusyWith(0, wa.g.hotSize, w, nil); s != nil {
			return s, nil
		}
		return nil, sched.ErrNoJob
	}
	// Cold jobs: spilled into the hot group first, then cold group.
	if s := wa.g.mostBusyWith(0, wa.g.hotSize, w, nil); s != nil {
		return s, nil
	}
	if s := wa.g.mostBusyWith(wa.g.hotSize, n, w, nil); s != nil {
		return s, nil
	}
	return nil, sched.ErrNoJob
}
