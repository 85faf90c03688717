package main

import (
	"fmt"
	"math"
	"time"

	"vmt"
	"vmt/internal/cluster"
	"vmt/internal/core"
	"vmt/internal/fault"
	"vmt/internal/sched"
	"vmt/internal/telemetry"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

// The traced replay re-wires one run from the program's public
// constructors, in Session's band order, so that every call into a
// layer can be bracketed by a span from this file: the program itself
// is not instrumented. Its output must be bit-identical to vmt.Run of
// the same Config (see sameOutput); otherwise the spans would describe
// a different program.

// layer names one traced boundary.
type layer int

const (
	layerCluster layer = iota // Cluster.Step: thermal/pcm kernels and estimators
	layerCore                 // the sched.Scheduler policy object
	layerSched                // LoadManager/StreamManager.Reconcile
	layerFault                // Injector.Tick
	layerGuard                // Guard.Tick
	numLayers
)

// Core call kinds, timed separately.
const (
	corePlace = iota
	coreRemove
	coreTick
	numCoreKinds
)

// spanClock accumulates span durations per layer. Spans nest: the open
// span on top of the stack is the parent (the cause) of the next one,
// and a closing span's duration is charged to its parent as child time,
// so a layer's self time is its total minus its children.
type spanClock struct {
	total [numLayers]time.Duration
	child [numLayers]time.Duration
	stack []openSpan

	coreCalls [numCoreKinds]uint64
	coreTime  [numCoreKinds]time.Duration
}

type openSpan struct {
	l     layer
	start time.Time
}

func (c *spanClock) begin(l layer) {
	c.stack = append(c.stack, openSpan{l: l, start: time.Now()})
}

func (c *spanClock) end() time.Duration {
	n := len(c.stack) - 1
	sp := c.stack[n]
	d := time.Since(sp.start)
	c.stack = c.stack[:n]
	c.total[sp.l] += d
	if n > 0 {
		c.child[c.stack[n-1].l] += d
	}
	return d
}

func (c *spanClock) endCore(kind int) {
	c.coreTime[kind] += c.end()
	c.coreCalls[kind]++
}

func (c *spanClock) self(l layer) time.Duration { return c.total[l] - c.child[l] }

// timedPolicy is a pass-through sched.Scheduler decorator that times
// each call into the wrapped policy.
type timedPolicy struct {
	inner sched.Scheduler
	clock *spanClock
}

func (t *timedPolicy) Name() string { return t.inner.Name() }

func (t *timedPolicy) Place(w workload.Workload) (*cluster.Server, error) {
	t.clock.begin(layerCore)
	s, err := t.inner.Place(w)
	t.clock.endCore(corePlace)
	return s, err
}

func (t *timedPolicy) SelectRemoval(w workload.Workload) (*cluster.Server, error) {
	t.clock.begin(layerCore)
	s, err := t.inner.SelectRemoval(w)
	t.clock.endCore(coreRemove)
	return s, err
}

func (t *timedPolicy) Tick(now time.Duration) {
	t.clock.begin(layerCore)
	t.inner.Tick(now)
	t.clock.endCore(coreTick)
}

// manager is the scheduling band: both managers in internal/sched
// reconcile each tick and evacuate crashed servers for the injector.
type manager interface {
	Reconcile(time.Duration) error
	Evacuate(*cluster.Server) (moved, lost int, err error)
}

// output is what a run produces: every series and counter of
// vmt.Result that the sample band and Close fill in.
type output struct {
	Cooling, Power, AirTemp, MeltFrac, WaxEnergy, MaxCPU []float64
	HotTemp, HotSize                                     []float64
	hasGroups                                            bool
	Throttle                                             int
	Arrivals, Drops                                      uint64
	Crashes, Repairs, Evacuated, Lost                    uint64
	DomainTrips, Quarantined                             uint64
}

func outputOf(r *vmt.Result) output {
	o := output{
		Cooling:     r.CoolingLoadW.Values,
		Power:       r.TotalPowerW.Values,
		AirTemp:     r.MeanAirTempC.Values,
		MeltFrac:    r.MeanMeltFrac.Values,
		WaxEnergy:   r.WaxEnergyJ.Values,
		MaxCPU:      r.MaxCPUTempC.Values,
		hasGroups:   r.HotGroupSize != nil,
		Throttle:    r.ThrottleMinutes,
		Arrivals:    r.TaskArrivals,
		Drops:       r.TaskDrops,
		Crashes:     r.FaultCrashes,
		Repairs:     r.FaultRepairs,
		Evacuated:   r.EvacuatedJobs,
		Lost:        r.LostJobs,
		DomainTrips: r.DomainTrips,
		Quarantined: r.ReportsQuarantined,
	}
	if o.hasGroups {
		o.HotTemp = r.HotGroupTempC.Values
		o.HotSize = r.HotGroupSize.Values
	}
	return o
}

// sameOutput reports the first difference between two outputs, bit
// for bit; "" means identical.
func sameOutput(a, b output) string {
	series := []struct {
		name string
		x, y []float64
	}{
		{"cooling_load_w", a.Cooling, b.Cooling},
		{"total_power_w", a.Power, b.Power},
		{"mean_air_temp_c", a.AirTemp, b.AirTemp},
		{"mean_melt_frac", a.MeltFrac, b.MeltFrac},
		{"wax_energy_j", a.WaxEnergy, b.WaxEnergy},
		{"max_cpu_temp_c", a.MaxCPU, b.MaxCPU},
		{"hot_group_temp_c", a.HotTemp, b.HotTemp},
		{"hot_group_size", a.HotSize, b.HotSize},
	}
	for _, s := range series {
		if len(s.x) != len(s.y) {
			return fmt.Sprintf("%s: %d samples vs %d", s.name, len(s.x), len(s.y))
		}
		for i := range s.x {
			if math.Float64bits(s.x[i]) != math.Float64bits(s.y[i]) {
				return fmt.Sprintf("%s[%d]: %v vs %v", s.name, i, s.x[i], s.y[i])
			}
		}
	}
	if a.hasGroups != b.hasGroups {
		return "hot-group series present in one output only"
	}
	counts := []struct {
		name string
		x, y uint64
	}{
		{"throttle_minutes", uint64(a.Throttle), uint64(b.Throttle)},
		{"task_arrivals", a.Arrivals, b.Arrivals},
		{"task_drops", a.Drops, b.Drops},
		{"fault_crashes", a.Crashes, b.Crashes},
		{"fault_repairs", a.Repairs, b.Repairs},
		{"evacuated_jobs", a.Evacuated, b.Evacuated},
		{"lost_jobs", a.Lost, b.Lost},
		{"domain_trips", a.DomainTrips, b.DomainTrips},
		{"reports_quarantined", a.Quarantined, b.Quarantined},
	}
	for _, c := range counts {
		if c.x != c.y {
			return fmt.Sprintf("%s: %d vs %d", c.name, c.x, c.y)
		}
	}
	return ""
}

// replayStats are the per-run counts the traced layers report.
type replayStats struct {
	serverTicks uint64
	settled     uint64
	placements  uint64 // fluid jobs placed (sched_placements)
	shed        uint64 // sched_jobs_shed
}

// newPolicy builds the configured placement policy, as vmt.Run does.
// The replay wires only what the workloads use; anything else is an
// error rather than a silently different program.
func newPolicy(cfg vmt.Config, cl *cluster.Cluster) (sched.Scheduler, error) {
	if len(cfg.GVSchedule) > 0 {
		return nil, fmt.Errorf("replay: GV schedules are not replayed")
	}
	coreCfg := core.Config{
		GV:                  cfg.GV,
		WaxThreshold:        cfg.WaxThreshold.Value(),
		OracleWaxState:      cfg.OracleWaxState,
		MigrationBudgetFrac: cfg.MigrationBudgetFrac,
	}
	switch cfg.Policy {
	case vmt.PolicyRoundRobin:
		return sched.NewRoundRobin(cl), nil
	case vmt.PolicyVMTTA:
		return core.NewThermalAware(cl, coreCfg)
	case vmt.PolicyVMTWA:
		return core.NewWaxAware(cl, coreCfg)
	}
	return nil, fmt.Errorf("replay: policy %q is not replayed", cfg.Policy)
}

// replay runs cfg, a resolved configuration (vmt.Result.Config), tick by
// tick. With a non-nil clock every layer call is timed.
func replay(cfg vmt.Config, clock *spanClock) (output, replayStats, error) {
	var st replayStats
	if cfg.Source != nil || cfg.CustomTrace != nil {
		return output{}, st, fmt.Errorf("replay: only generated traces are replayed")
	}
	cl, err := cluster.New(cluster.Config{
		NumServers:     cfg.Servers,
		Server:         cfg.Server.Value(),
		Material:       cfg.Material.Value(),
		InletTempC:     cfg.InletTempC.Value(),
		InletStdevC:    cfg.InletStdevC,
		Seed:           cfg.Seed,
		PhysicsWorkers: cfg.PhysicsWorkers,
	})
	if err != nil {
		return output{}, st, err
	}
	policy, err := newPolicy(cfg, cl)
	if err != nil {
		return output{}, st, err
	}
	grouper, hasGroups := policy.(interface{ HotGroupSize() int })
	inner := policy
	if clock != nil {
		inner = &timedPolicy{inner: policy, clock: clock}
	}
	override, err := sched.NewOverride(cl, inner)
	if err != nil {
		return output{}, st, err
	}
	src, err := trace.Cached(cfg.Trace, cfg.Step)
	if err != nil {
		return output{}, st, err
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = src.Horizon()
	}

	reg := telemetry.NewRegistry()
	var (
		mgr    manager
		stream *sched.StreamManager
	)
	if cfg.JobStream {
		durations := cfg.TaskDurations
		if durations == nil {
			durations = sched.DefaultTaskDurations()
		}
		if stream, err = sched.NewStreamManager(cl, cfg.Mix, src, override, durations, cfg.Seed); err != nil {
			return output{}, st, err
		}
		stream.SetMetrics(reg)
		mgr = stream
	} else {
		lm, err := sched.NewLoadManager(cl, cfg.Mix, src, override)
		if err != nil {
			return output{}, st, err
		}
		lm.SetMetrics(reg)
		mgr = lm
	}
	var (
		injector *fault.Injector
		guard    *sched.Guard
	)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		injector = fault.NewInjector(cfg.Faults, cl, mgr, reg)
		guard = sched.NewGuard(cl, cfg.Mix, cfg.Step, reg)
	}

	step := cfg.Step
	n := int(horizon / step)
	out := output{hasGroups: hasGroups}
	for _, s := range []*[]float64{&out.Cooling, &out.Power, &out.AirTemp, &out.MeltFrac, &out.WaxEnergy, &out.MaxCPU} {
		*s = make([]float64, 0, n)
	}
	if hasGroups {
		out.HotTemp = make([]float64, 0, n)
		out.HotSize = make([]float64, 0, n)
	}

	reconcile := func(now time.Duration) error {
		if clock == nil {
			return mgr.Reconcile(now)
		}
		clock.begin(layerSched)
		err := mgr.Reconcile(now)
		clock.end()
		return err
	}
	// Band order per tick, as Session registers them: schedule alone
	// at t=0, then physics, fault, guard, schedule, sample.
	if err := reconcile(0); err != nil {
		return output{}, st, err
	}
	for tick := 1; tick <= n; tick++ {
		now := time.Duration(tick) * step
		if clock != nil {
			clock.begin(layerCluster)
		}
		smp, err := cl.Step(step)
		if clock != nil {
			clock.end()
		}
		if err != nil {
			return output{}, st, err
		}
		if injector != nil {
			if clock != nil {
				clock.begin(layerFault)
			}
			err := injector.Tick(now, step)
			if clock != nil {
				clock.end()
				clock.begin(layerGuard)
			}
			if err == nil {
				guard.Tick(now)
			}
			if clock != nil {
				clock.end()
			}
			if err != nil {
				return output{}, st, err
			}
		}
		if err := reconcile(now); err != nil {
			return output{}, st, err
		}

		out.Cooling = append(out.Cooling, smp.CoolingLoadW)
		out.Power = append(out.Power, smp.TotalPowerW)
		out.AirTemp = append(out.AirTemp, smp.MeanAirTempC)
		out.MeltFrac = append(out.MeltFrac, smp.MeanMeltFrac)
		out.MaxCPU = append(out.MaxCPU, smp.MaxCPUTempC)
		out.WaxEnergy = append(out.WaxEnergy, smp.WaxEnergyJ)
		if smp.ThrottlingServers > 0 {
			out.Throttle++
		}
		if hasGroups {
			size := grouper.HotGroupSize()
			out.HotSize = append(out.HotSize, float64(size))
			if size > 0 {
				var sum float64
				for i := 0; i < size; i++ {
					sum += smp.AirTempC[i]
				}
				out.HotTemp = append(out.HotTemp, sum/float64(size))
			} else {
				out.HotTemp = append(out.HotTemp, smp.MeanAirTempC)
			}
		}
		st.settled += uint64(smp.SettledServers)
	}

	if stream != nil {
		out.Arrivals = stream.Arrived()
		out.Drops = stream.Dropped()
	}
	if injector != nil {
		out.Crashes = injector.Crashes()
		out.Repairs = injector.Repairs()
		out.Evacuated = injector.Evacuated()
		out.Lost = injector.Lost()
		out.DomainTrips = injector.DomainTrips()
		out.Quarantined = guard.Quarantined()
	}
	st.serverTicks = uint64(cfg.Servers) * uint64(n)
	st.placements = reg.Counter("sched_placements").Value()
	st.shed = reg.Counter("sched_jobs_shed").Value()
	return out, st, nil
}
