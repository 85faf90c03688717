package vmt

import (
	"context"
	"fmt"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/fault"
	"vmt/internal/sched"
	"vmt/internal/stats"
	"vmt/internal/telemetry"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

// Session is a long-lived, resumable simulation: the monolithic Run
// pipeline decomposed into Open → Observe/Place/Step → Close, so an
// external controller (an RL policy, an MPC loop, a live operator)
// can drive the cluster one tick at a time instead of replaying a
// closed batch. Determinism is preserved exactly: a session stepped
// tick by tick, in ragged chunks, or all at once produces a Result
// bit-identical to vmt.Run of the same Config — Run itself is a thin
// wrapper that opens a session and steps it to completion.
//
// Time advances in fixed ticks through one band table (see runTick):
// the clock is a tick counter, so stepping in chunks re-enters the
// same loop at the same place, and the first latched error stops it
// on the tick that failed. See DESIGN.md.
//
// A Session is not safe for concurrent use; drive it from one
// goroutine (the vmtsim -serve mode serializes HTTP access with a
// mutex).
type Session struct {
	cfg Config // resolved (withDefaults applied)
	ctx context.Context

	cl        *cluster.Cluster
	override  *sched.Override
	reconcile reconciler
	grouper   hotGrouper
	hasGroups bool
	src       workload.JobSource
	stream    *sched.StreamManager
	injector  *fault.Injector
	guard     *sched.Guard

	res        *Result
	step       time.Duration
	horizon    time.Duration // 0 = open-ended
	now        time.Duration
	next       int64 // the next tick to run; tick k runs at k×step
	lastSample cluster.Sample
	rec        [len(runSeries)]float64 // the tick's runSeries values, set by the sample band
	runErr     error
	closed     bool

	// Instruments, resolved once so the bands do no map lookups; nil
	// ones no-op. streams[i] is runSeries[i]'s window sampler.
	tracer     telemetry.Tracer
	wall0      time.Time                 // span wall-clock origin
	bands      [numBands]*telemetry.Band // nil when the run is uninstrumented
	dispatched *telemetry.Counter
	runTicks   *telemetry.Counter
	abovePMT   *telemetry.Counter
	settled    *telemetry.Gauge
	meltHist   *telemetry.Histogram
	streams    [len(runSeries)]*telemetry.TimeSeries
}

// The per-tick bands, in run order.
const (
	bandPhysics = iota
	bandFault
	bandGuard
	bandSchedule
	bandSample
	numBands
)

var bandNames = [numBands]string{"physics", "fault", "guard", "schedule", "sample"}

// seriesRow is one per-tick series of a run: its export, stream and
// span name, whether only a grouping policy records it, its Result
// field, and its value from the tick's sample and hot-group size.
type seriesRow struct {
	name    string
	grouped bool
	field   func(*Result) **stats.Series
	value   func(smp *cluster.Sample, hot int) float64
}

// runSeries is the one list of a run's per-tick series, in Result
// field order; every per-tick output walks it (see DESIGN.md). A row
// is recorded exactly when its Result series is non-nil.
var runSeries = [...]seriesRow{
	{name: "cooling_load_w",
		field: func(r *Result) **stats.Series { return &r.CoolingLoadW },
		value: func(smp *cluster.Sample, _ int) float64 { return smp.CoolingLoadW }},
	{name: "total_power_w",
		field: func(r *Result) **stats.Series { return &r.TotalPowerW },
		value: func(smp *cluster.Sample, _ int) float64 { return smp.TotalPowerW }},
	{name: "mean_air_temp_c",
		field: func(r *Result) **stats.Series { return &r.MeanAirTempC },
		value: func(smp *cluster.Sample, _ int) float64 { return smp.MeanAirTempC }},
	{name: "hot_group_temp_c", grouped: true,
		field: func(r *Result) **stats.Series { return &r.HotGroupTempC },
		value: hotGroupTempC},
	{name: "hot_group_size", grouped: true,
		field: func(r *Result) **stats.Series { return &r.HotGroupSize },
		value: func(_ *cluster.Sample, hot int) float64 { return float64(hot) }},
	{name: "mean_melt_frac",
		field: func(r *Result) **stats.Series { return &r.MeanMeltFrac },
		value: func(smp *cluster.Sample, _ int) float64 { return smp.MeanMeltFrac }},
	// The cluster accumulates the fleet wax ledger during its own
	// ID-order reduction.
	{name: "wax_energy_j",
		field: func(r *Result) **stats.Series { return &r.WaxEnergyJ },
		value: func(smp *cluster.Sample, _ int) float64 { return smp.WaxEnergyJ }},
	{name: "max_cpu_temp_c",
		field: func(r *Result) **stats.Series { return &r.MaxCPUTempC },
		value: func(smp *cluster.Sample, _ int) float64 { return smp.MaxCPUTempC }},
}

// The runSeries rows the fleet snapshot reads for its aggregates.
const (
	rowCoolingLoad = 0
	rowTotalPower  = 1
)

// hotGroupTempC is the mean air temperature of the hot group, which
// holds servers 0..hot-1; with an empty hot group it is the fleet mean.
func hotGroupTempC(smp *cluster.Sample, hot int) float64 {
	if hot == 0 {
		return smp.MeanAirTempC
	}
	var sum float64
	for _, t := range smp.AirTempC[:hot] {
		sum += t
	}
	return sum / float64(hot)
}

// Observation is a read-only snapshot of a session between steps —
// the observe half of the step/observe seam. Aggregates mirror the
// sample the last completed tick recorded; before the first step they
// are zero and Servers is empty (no physics has run yet).
type Observation struct {
	// Tick is the number of completed steps; SimTime = Tick × Step.
	Tick    int64         `json:"tick"`
	SimTime time.Duration `json:"sim_time_ns"`
	// Done reports a finite-horizon session that has reached its end.
	Done bool `json:"done"`
	// Utilization is the job source's demand level at SimTime.
	Utilization float64 `json:"utilization"`
	// Fleet aggregates from the last completed tick.
	CoolingLoadW float64 `json:"cooling_load_w"`
	TotalPowerW  float64 `json:"total_power_w"`
	MeanAirTempC float64 `json:"mean_air_temp_c"`
	MeanMeltFrac float64 `json:"mean_melt_frac"`
	MaxCPUTempC  float64 `json:"max_cpu_temp_c"`
	WaxEnergyJ   float64 `json:"wax_energy_j"`
	// SettledServers counts servers coasting on the memoized
	// steady-state physics transition; ThrottlingServers counts
	// servers whose die temperature is over the throttle point.
	SettledServers    int `json:"settled_servers"`
	ThrottlingServers int `json:"throttling_servers"`
	FreeCores         int `json:"free_cores"`
	BusyCores         int `json:"busy_cores"`
	// HotGroupSize is 0 for non-grouping policies.
	HotGroupSize int    `json:"hot_group_size"`
	TaskArrivals uint64 `json:"task_arrivals"`
	TaskDrops    uint64 `json:"task_drops"`
	// PlacementsOverridden and Rejected count the external placer's
	// accepted and refused decisions (the observe/place seam).
	PlacementsOverridden uint64 `json:"placements_overridden"`
	Rejected             uint64 `json:"placements_rejected"`
	// Servers is the per-server state, indexed by server ID.
	Servers []ServerObservation `json:"servers"`
}

// ServerObservation is one server's externally visible state.
type ServerObservation struct {
	ID        int     `json:"id"`
	AirTempC  float64 `json:"air_temp_c"`
	MeltFrac  float64 `json:"melt_frac"`
	FreeCores int     `json:"free_cores"`
	BusyCores int     `json:"busy_cores"`
	Crashed   bool    `json:"crashed"`
	Group     string  `json:"group,omitempty"`
}

// Open builds a session from cfg without advancing time. Equivalent
// to OpenCtx with a background context.
func Open(cfg Config) (*Session, error) {
	return OpenCtx(context.Background(), cfg)
}

// OpenCtx is Open with cancellation: when ctx is cancelled the run
// stops at the next tick boundary, the session latches ctx.Err(), and
// Close still returns the cleanly sampled partial Result alongside
// the error. Cancellation can only truncate a run, never change what
// the completed prefix recorded.
func OpenCtx(ctx context.Context, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults().withObservers(defaultObservers(), soloRun)

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
		return nil, err
	}
	scheduler, err := newScheduler(cfg, cl)
	if err != nil {
		return nil, err
	}

	// The job source: an open-loop generator when configured, the
	// (finite) trace otherwise. The horizon is the source's natural
	// length unless Horizon overrides it; zero means open-ended, which
	// only a stepped session can drive.
	var src workload.JobSource
	if cfg.Source != nil {
		src, err = cfg.Source.New()
		if err != nil {
			return nil, err
		}
	} else if cfg.CustomTrace != nil {
		src = cfg.CustomTrace
	} else {
		// Cached: sweeps rerun the same spec hundreds of times, and
		// generated traces are immutable, so every run of a batch
		// shares one decode.
		tr, err := trace.Cached(cfg.Trace, cfg.Step)
		if err != nil {
			return nil, err
		}
		src = tr
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = src.Horizon()
	}

	// The Override wrapper is the place half of the seam: with no
	// directives and no placer it is transparent (no RNG draws, no
	// changed decisions), so wrapping costs nothing and bit-identity
	// with the unwrapped pipeline holds by construction. The grouping
	// interface is resolved on the real policy underneath.
	override, err := sched.NewOverride(cl, scheduler)
	if err != nil {
		return nil, err
	}
	var reconcile reconciler
	var stream *sched.StreamManager
	if cfg.JobStream {
		durations := cfg.TaskDurations
		if durations == nil {
			durations = sched.DefaultTaskDurations()
		}
		stream, err = sched.NewStreamManager(cl, cfg.Mix, src, override, durations, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if cfg.Metrics != nil {
			stream.SetMetrics(cfg.Metrics)
		}
		reconcile = stream
	} else {
		lm, err := sched.NewLoadManager(cl, cfg.Mix, src, override)
		if err != nil {
			return nil, err
		}
		if cfg.Metrics != nil {
			lm.SetMetrics(cfg.Metrics)
		}
		reconcile = lm
	}

	// Fault injection: the injector interposes sensors at construction
	// and ticks on the fault band (after physics, before the
	// scheduler). Nil plan → nil injector → zero overhead. The guard
	// is the matching defense: whenever faults are in play it
	// cross-checks every server's reported telemetry against power
	// residuals and melt-rate physics, quarantining implausible
	// reporters (see internal/sched.Guard).
	var injector *fault.Injector
	var guard *sched.Guard
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		injector = fault.NewInjector(cfg.Faults, cl, reconcile, cfg.Metrics)
		guard = sched.NewGuard(cl, cfg.Mix, cfg.Step, cfg.Metrics)
	}

	// One sample lands per step over the horizon, the first after one
	// elapsed step; preallocating the series keeps the sample band free
	// of append reallocations. An open-ended session grows as it goes.
	nSamples := 0
	if horizon > 0 {
		nSamples = int(horizon / cfg.Step)
	}
	res := &Result{Config: cfg}
	grouper, hasGroups := scheduler.(hotGrouper)

	s := &Session{
		cfg:        cfg,
		ctx:        ctx,
		cl:         cl,
		override:   override,
		reconcile:  reconcile,
		grouper:    grouper,
		hasGroups:  hasGroups,
		src:        src,
		stream:     stream,
		injector:   injector,
		guard:      guard,
		res:        res,
		step:       cfg.Step,
		horizon:    horizon,
		tracer:     cfg.Tracer,
		dispatched: cfg.Metrics.Counter("sim_events_dispatched"),
		// Thermal/PCM instruments: the fleet melt-fraction
		// distribution and accumulated server-seconds above the wax's
		// physical melting temperature.
		runTicks: cfg.Metrics.Counter("run_ticks"),
		abovePMT: cfg.Metrics.Counter("thermal_above_pmt_server_s"),
		settled:  cfg.Metrics.Gauge("cluster_settled_servers"),
		meltHist: cfg.Metrics.Histogram("pcm_melt_frac", telemetry.LinearBounds(0, 1, 10)...),
	}
	for i, row := range runSeries {
		if row.grouped && !hasGroups {
			continue
		}
		sr := stats.NewSeriesCap(cfg.Step, nSamples)
		sr.Start = cfg.Step
		*row.field(res) = sr
		s.streams[i] = cfg.Stream.Series(row.name)
	}
	var profiler *telemetry.BandProfiler
	if cfg.ProfileBands {
		profiler = telemetry.NewBandProfiler(cfg.Metrics) // nil registry → nil profiler
	}
	if s.tracer != nil || profiler != nil {
		s.wall0 = time.Now() //vmtlint:allow detrand observational: span wall-clock origin, never read by the simulation
		for b, name := range bandNames {
			if injector != nil || (b != bandFault && b != bandGuard) {
				if s.bands[b] = profiler.Band(name); s.bands[b] == nil {
					s.bands[b] = new(telemetry.Band) // tracing only: time the span, no counters
				}
			}
		}
	}
	return s, nil
}

// fail latches the first error; later bands see it and do not run.
// fail(nil) is a no-op.
func (s *Session) fail(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
}

// advance runs every tick due at or before end, then settles the
// clock at end. The first latched error stops it on the failing tick
// with the clock left at the last tick that completed, so Tick, Now
// and the partial Result all describe the same simulated prefix.
func (s *Session) advance(end time.Duration) error {
	for ; time.Duration(s.next)*s.step <= end; s.next++ {
		s.runTick(s.next)
		if s.runErr != nil {
			return s.runErr
		}
		s.now = time.Duration(s.next) * s.step
	}
	s.now = end
	return nil
}

// runTick is the band table. Tick 0 only places the initial load: no
// time has elapsed, so there is nothing to advance or sample. Every
// later tick checks for cancellation, advances the physics, lands
// faults and then the guard's trust decisions (with a fault plan
// only) on the settled state, lets the scheduler react, and samples.
// A band that latches an error ends the tick.
func (s *Session) runTick(k int64) {
	now := time.Duration(k) * s.step
	if k > 0 {
		s.fail(s.ctx.Err())
		s.runBand(bandPhysics, now, s.physics)
		if s.injector != nil {
			s.runBand(bandFault, now, s.faults)
			s.runBand(bandGuard, now, s.guardTick)
		}
	}
	s.runBand(bandSchedule, now, s.schedule)
	if k > 0 {
		s.runBand(bandSample, now, s.sample)
	}
}

// runBand runs one band unless an error is latched, counting it on
// sim_events_dispatched. An instrumented band (tracer or band
// profiling) is timed once by its telemetry.Band, and that one
// measurement feeds both the span and the profiler counters; an
// uninstrumented band runs bare.
func (s *Session) runBand(b int, now time.Duration, fn func(time.Duration) error) {
	if s.runErr != nil {
		return
	}
	s.dispatched.Inc()
	band := s.bands[b]
	if band == nil {
		s.fail(fn(now))
		return
	}
	t0 := band.Begin() //vmtlint:allow detrand observational: band wall/alloc deltas feed telemetry only
	s.fail(fn(now))
	wall, alloc := band.End() //vmtlint:allow detrand observational: band wall/alloc deltas feed telemetry only
	if s.tracer == nil {
		return
	}
	var args map[string]float64 // the sample span carries the tick's record
	if b == bandSample {
		args = make(map[string]float64, len(runSeries))
		for i, row := range runSeries {
			if *row.field(s.res) != nil {
				args[row.name] = s.rec[i]
			}
		}
	}
	s.tracer.Emit(telemetry.SpanEvent{
		Name:       bandNames[b],
		At:         now,
		WallStart:  t0.Sub(s.wall0),
		Wall:       time.Duration(wall),
		AllocBytes: alloc,
		Args:       args,
	})
}

// physics advances the cluster by one period.
func (s *Session) physics(time.Duration) error {
	smp, err := s.cl.Step(s.step)
	if err != nil {
		return err
	}
	s.lastSample = smp
	return nil
}

// faults lands crashes, repairs, and stochastic draws between the
// physics settling and the scheduler's reaction, in server-ID order.
// A crash scheduled at at_min lands on the first tick at or after it.
func (s *Session) faults(now time.Duration) error {
	return s.injector.Tick(now, s.step)
}

// guardTick makes trust decisions on the tick's settled reports,
// after the injector and before the scheduler reads them.
func (s *Session) guardTick(now time.Duration) error {
	s.guard.Tick(now)
	return nil
}

// schedule reconciles the job population with the source.
func (s *Session) schedule(now time.Duration) error {
	return s.reconcile.Reconcile(now)
}

// sample records the settled state of tick now/step.
func (s *Session) sample(now time.Duration) error {
	last, res := s.lastSample, s.res
	if s.cfg.Metrics != nil {
		s.runTicks.Inc()
		// How much of the fleet the physics memo is coasting
		// through — observational only, no control decisions.
		s.settled.Set(float64(last.SettledServers))
		pmtC, stepSecs := s.cfg.Material.Value().MeltTempC, uint64(s.step.Seconds())
		for i, f := range last.MeltFrac {
			s.meltHist.Observe(f)
			if last.AirTempC[i] >= pmtC {
				s.abovePMT.Add(stepSecs)
			}
		}
	}
	hot := 0
	if s.hasGroups {
		hot = s.grouper.HotGroupSize()
	}
	for i, row := range runSeries {
		if out := *row.field(res); out != nil {
			s.rec[i] = row.value(&s.lastSample, hot)
			out.Append(s.rec[i])
		}
	}
	if last.ThrottlingServers > 0 {
		res.ThrottleMinutes++
	}
	if s.cfg.RecordGrids {
		res.AirTempGrid = append(res.AirTempGrid, append([]float64(nil), last.AirTempC...))
		res.MeltFracGrid = append(res.MeltFracGrid, append([]float64(nil), last.MeltFrac...))
	}
	// Streamed telemetry: one observation per series per tick, fed
	// into the bounded-memory window samplers. Ticks are 1-based
	// (the first sample lands after one elapsed step).
	tick := int64(now / s.step)
	for i, ts := range s.streams {
		ts.Observe(tick, s.rec[i])
	}
	if s.cfg.Fleet == nil {
		return nil
	}
	// A fresh immutable snapshot per tick: readers of the live view
	// may hold the previous one indefinitely.
	snap := &telemetry.FleetSnapshot{
		Tick:         tick,
		SimNS:        int64(now),
		CoolingLoadW: s.rec[rowCoolingLoad],
		TotalPowerW:  s.rec[rowTotalPower],
		Servers:      make([]telemetry.ServerState, len(last.AirTempC)),
	}
	for i := range snap.Servers {
		snap.Servers[i] = telemetry.ServerState{
			ID:       i,
			AirTempC: last.AirTempC[i],
			MeltFrac: last.MeltFrac[i],
			Crashed:  s.cl.Server(i).Failed(),
			Group:    groupLabel(s.hasGroups, i, hot),
		}
	}
	s.cfg.Fleet.Publish(snap)
	return nil
}

// groupLabel names server i's placement group: "hot" for the first
// hot servers under a grouping policy, "cold" for the rest, and ""
// when the policy does not group.
func groupLabel(grouped bool, i, hot int) string {
	switch {
	case !grouped:
		return ""
	case i < hot:
		return "hot"
	}
	return "cold"
}

// Tick returns the number of completed steps.
func (s *Session) Tick() int64 { return int64(s.now / s.step) }

// Now returns the session's simulated time.
func (s *Session) Now() time.Duration { return s.now }

// Done reports whether a finite-horizon session has reached its end.
// Open-ended sessions (an open-loop Source with no Horizon) are never
// done.
func (s *Session) Done() bool {
	return s.horizon > 0 && s.now >= s.horizon
}

// Step advances the session n ticks (clamped to the horizon, when
// finite), then seals every telemetry window the advance completed so
// streamed runs flush incrementally on step boundaries. Stepping a
// finished session is a no-op; stepping a closed or failed session
// returns the latched error.
func (s *Session) Step(n int) error {
	if s.closed {
		return fmt.Errorf("vmt: session is closed")
	}
	if n <= 0 {
		return fmt.Errorf("vmt: step count %d must be positive", n)
	}
	if s.runErr != nil {
		return s.runErr
	}
	target := s.now + time.Duration(n)*s.step
	if s.horizon > 0 && target > s.horizon {
		target = s.horizon
	}
	if err := s.advance(target); err != nil {
		return err
	}
	s.cfg.Stream.SealThrough(s.Tick())
	return nil
}

// StepAll advances a finite-horizon session to its end in one pass of
// the tick loop — exactly the monolithic Run loop, so Run-over-Session
// keeps every golden fixture byte-identical and pays no per-step
// overhead.
func (s *Session) StepAll() error {
	if s.closed {
		return fmt.Errorf("vmt: session is closed")
	}
	if s.horizon == 0 {
		return fmt.Errorf("vmt: session is open-ended (Source with no Horizon); use Step")
	}
	if s.runErr != nil {
		return s.runErr
	}
	return s.advance(s.horizon)
}

// Observe snapshots the session's externally visible state. Slices
// are freshly allocated; the caller owns them.
func (s *Session) Observe() Observation {
	last := s.lastSample
	obs := Observation{
		Tick:                 s.Tick(),
		SimTime:              s.now,
		Done:                 s.Done(),
		Utilization:          s.src.At(s.now),
		CoolingLoadW:         last.CoolingLoadW,
		TotalPowerW:          last.TotalPowerW,
		MeanAirTempC:         last.MeanAirTempC,
		MeanMeltFrac:         last.MeanMeltFrac,
		MaxCPUTempC:          last.MaxCPUTempC,
		WaxEnergyJ:           last.WaxEnergyJ,
		SettledServers:       last.SettledServers,
		ThrottlingServers:    last.ThrottlingServers,
		BusyCores:            s.cl.BusyCores(),
		PlacementsOverridden: s.override.Overridden(),
		Rejected:             s.override.Rejected(),
		Servers:              make([]ServerObservation, len(last.AirTempC)),
	}
	obs.FreeCores = s.cl.TotalCores() - obs.BusyCores
	if s.hasGroups {
		obs.HotGroupSize = s.grouper.HotGroupSize()
	}
	if s.stream != nil {
		obs.TaskArrivals = s.stream.Arrived()
		obs.TaskDrops = s.stream.Dropped()
	}
	for i := range obs.Servers {
		srv := s.cl.Server(i)
		obs.Servers[i] = ServerObservation{
			ID:        i,
			AirTempC:  last.AirTempC[i],
			MeltFrac:  last.MeltFrac[i],
			FreeCores: srv.FreeCores(),
			BusyCores: srv.BusyCores(),
			Crashed:   srv.Failed(),
			Group:     groupLabel(s.hasGroups, i, obs.HotGroupSize),
		}
	}
	return obs
}

// Place enqueues a one-shot directive: the next placement of the
// named workload lands on the given server, if it is alive with a
// free core at placement time (otherwise the built-in policy decides
// and the rejection is counted). The place half of the seam.
func (s *Session) Place(workloadName string, serverID int) error {
	if s.closed {
		return fmt.Errorf("vmt: session is closed")
	}
	if serverID < 0 || serverID >= s.cl.Len() {
		return fmt.Errorf("vmt: server %d out of range [0,%d)", serverID, s.cl.Len())
	}
	for _, e := range s.cfg.Mix.Entries() {
		if e.Workload.Name == workloadName {
			s.override.Direct(workloadName, serverID)
			return nil
		}
	}
	return fmt.Errorf("vmt: unknown workload %q", workloadName)
}

// SetPlacer installs (or, with nil, removes) a standing placement
// callback consulted for every placement: a non-negative return
// forces that server, a negative return defers to the built-in
// policy.
func (s *Session) SetPlacer(fn func(workloadName string) int) {
	if fn == nil {
		s.override.SetPlacer(nil)
		return
	}
	s.override.SetPlacer(func(w workload.Workload) int { return fn(w.Name) })
}

// Close seals the session: trailing telemetry windows flush, the
// scheduler and fault totals land on the Result, and the Result is
// returned — complete after a full run, a clean partial prefix after
// cancellation or failure (returned alongside the latched error).
// Close is idempotent.
func (s *Session) Close() (*Result, error) {
	if !s.closed {
		s.closed = true
		// Seal trailing partial windows so the stream's sink holds the
		// full run. Nil-safe.
		s.cfg.Stream.Flush()
		if s.stream != nil {
			s.res.TaskArrivals = s.stream.Arrived()
			s.res.TaskDrops = s.stream.Dropped()
		}
		if s.injector != nil {
			s.res.FaultCrashes = s.injector.Crashes()
			s.res.FaultRepairs = s.injector.Repairs()
			s.res.EvacuatedJobs = s.injector.Evacuated()
			s.res.LostJobs = s.injector.Lost()
			s.res.DomainTrips = s.injector.DomainTrips()
		}
		if s.guard != nil {
			s.res.ReportsQuarantined = s.guard.Quarantined()
		}
	}
	return s.res, s.runErr
}
