package vmt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"vmt/internal/experiment"
	"vmt/internal/fault"
	"vmt/internal/pcm"
	"vmt/internal/thermal"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

// This file binds the declarative experiment engine
// (internal/experiment) to the simulator: the settings vocabulary that
// maps spec files onto Configs, the canonical Config hash behind the
// content-addressed run cache, the spec executor on top of
// RunManyOpts, and the named reducers. The root studies in
// experiments.go / ablation.go / adaptability.go / adaptive.go are
// thin spec-builder + reducer adapters over this core.

// ---------------------------------------------------------------------
// Canonical Config hashing.

// hashableConfig shadows Config with exactly the fields that determine
// a run's Result. Metrics, Tracer, and PhysicsWorkers are excluded:
// telemetry is strictly observational and results are bit-identical
// for every physics worker count, so configurations differing only
// there are the same run. A set CustomTrace overrides Trace, so Trace
// is zeroed when the custom samples are hashed.
type hashableConfig struct {
	Servers             int
	Policy              Policy
	GV                  float64
	WaxThreshold        float64
	OracleWaxState      bool
	MigrationBudgetFrac float64
	GVSchedule          []GVChange
	PreserveUntil       time.Duration
	SacrificeFrac       float64
	Server              thermal.ServerSpec
	Material            pcm.Material
	InletTempC          float64
	InletStdevC         float64
	Seed                uint64
	Trace               trace.Spec
	CustomTraceStep     time.Duration
	CustomTraceSamples  []float64
	Source              *workload.SourceSpec
	Horizon             time.Duration
	Mix                 []workload.MixEntry
	Step                time.Duration
	RecordGrids         bool
	JobStream           bool
	TaskDurations       map[string]time.Duration
	Faults              *fault.Plan
}

// cacheKeyExclusions is the documented observational-exclusion set:
// every exported Config field deliberately absent (by name) from
// hashableConfig, with the reason it is safe to leave out of the run
// cache's key. vmtlint's cachekey analyzer checks Config against
// hashableConfig and this table, so a new Config field that is neither
// hashed nor listed here fails `make lint` instead of silently
// poisoning the cache; TestCacheKeyExclusionsConsistent is the runtime
// backstop for the same contract.
var cacheKeyExclusions = map[string]string{
	"Metrics":        "observational: metrics never alter results",
	"Tracer":         "observational: tracing never alters results",
	"Stream":         "observational: windowed time-series telemetry never alters results",
	"Fleet":          "observational: fleet snapshots never alter results",
	"ProfileBands":   "observational: band profiling never alters results",
	"PhysicsWorkers": "observational: results are bit-identical for every worker count",
	"CustomTrace":    "hashed via the derived CustomTraceStep/CustomTraceSamples fields",
}

// configKey returns cfg's content address: the canonical hash of its
// resolved simulation-relevant fields. Two configurations share a key
// exactly when Run would produce bit-identical Results for both.
func configKey(cfg Config) (string, error) {
	r := cfg.withDefaults()
	h := hashableConfig{
		Servers:             r.Servers,
		Policy:              r.Policy,
		GV:                  r.GV,
		WaxThreshold:        r.WaxThreshold.Value(),
		OracleWaxState:      r.OracleWaxState,
		MigrationBudgetFrac: r.MigrationBudgetFrac,
		GVSchedule:          r.GVSchedule,
		PreserveUntil:       r.PreserveUntil,
		SacrificeFrac:       r.SacrificeFrac.Value(),
		Server:              r.Server.Value(),
		Material:            r.Material.Value(),
		InletTempC:          r.InletTempC.Value(),
		InletStdevC:         r.InletStdevC,
		Seed:                r.Seed,
		Trace:               r.Trace,
		Source:              r.Source,
		Horizon:             r.Horizon,
		Mix:                 r.Mix.Entries(),
		Step:                r.Step,
		RecordGrids:         r.RecordGrids,
		JobStream:           r.JobStream,
		TaskDurations:       r.TaskDurations,
		Faults:              r.Faults,
	}
	if r.CustomTrace != nil {
		h.Trace = trace.Spec{}
		h.CustomTraceStep = r.CustomTrace.Step()
		h.CustomTraceSamples = r.CustomTrace.Values()
	}
	if r.Source != nil {
		// A set Source replaces the trace entirely, so the trace spec
		// is zeroed the same way a custom trace zeroes it.
		h.Trace = trace.Spec{}
	}
	return experiment.Key(h)
}

// ---------------------------------------------------------------------
// The session run cache.

// runCache deduplicates simulation runs across every study of the
// process: identical configurations (notably the shared round-robin
// baselines) simulate exactly once per session. Results handed out of
// the cache are shared — treat them as read-only, which every study
// already does; resultFingerprint is the backstop when one does not.
var runCache = func() *experiment.Cache {
	c := experiment.NewCache()
	c.SetVerifier(resultFingerprint)
	return c
}()

// resultFingerprint folds a cached *Result into a 64-bit integrity
// fingerprint: an FNV-1a-style fold over the exact float bits of every
// sampled series plus the scalar outcome fields. The cache re-checks
// it on every read, so a stored result mutated after Commit (an
// aliasing caller scribbling on a shared result) is quarantined and
// recomputed as a miss instead of silently poisoning later studies.
func resultFingerprint(v any) uint64 {
	r, ok := v.(*Result)
	if !ok || r == nil {
		return 0
	}
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	mix := func(u uint64) {
		h ^= u
		h *= prime
	}
	for _, row := range runSeries {
		s := *row.field(r)
		if s == nil {
			mix(0)
			continue
		}
		mix(uint64(len(s.Values)))
		for _, x := range s.Values {
			mix(math.Float64bits(x))
		}
	}
	mix(uint64(r.ThrottleMinutes))
	mix(r.TaskArrivals)
	mix(r.TaskDrops)
	mix(r.FaultCrashes)
	mix(r.FaultRepairs)
	mix(r.EvacuatedJobs)
	mix(r.LostJobs)
	mix(r.DomainTrips)
	mix(r.ReportsQuarantined)
	return h
}

// RunCache exposes the process-wide run cache, mainly so callers can
// disable it (benchmarking the dedup win), Reset it between
// measurements, or read its hit/miss Stats.
func RunCache() *experiment.Cache { return runCache }

// RunManyCached is RunManyOpts through the session run cache: cached
// and intra-batch-duplicate configurations are answered without
// simulating, and fresh results are stored for the rest of the
// process. Cache traffic lands on the "experiment_cache_hits" /
// "experiment_cache_misses" counters of the process default registry
// (see SetDefaultObservers). Like RunManyOpts, a failure is reported as a
// *RunError carrying the index into cfgs, with results at all other
// indices still populated.
func RunManyCached(cfgs []Config, opts BatchOptions) ([]*Result, error) {
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		k, err := configKey(cfg)
		if err != nil {
			return nil, &RunError{Index: i, Err: err}
		}
		keys[i] = k
	}
	plan := runCache.Plan(keys)

	metrics := defaultObservers().Metrics
	metrics.Counter("experiment_cache_hits").Add(uint64(len(cfgs) - plan.Misses()))
	metrics.Counter("experiment_cache_misses").Add(uint64(plan.Misses()))
	if n := plan.Corrupt(); n > 0 {
		metrics.Counter("experiment_cache_corruptions").Add(uint64(n))
	}

	toRun := make([]Config, len(plan.Run))
	for j, i := range plan.Run {
		toRun[j] = cfgs[i]
	}
	runs, runErr := RunManyOpts(toRun, opts)
	fresh := make([]any, len(toRun))
	for j, r := range runs {
		if r != nil {
			fresh[j] = r
		}
	}
	merged := runCache.Commit(plan, fresh)
	out := make([]*Result, len(cfgs))
	for i, v := range merged {
		if v != nil {
			out[i] = v.(*Result)
		}
	}
	if runErr != nil {
		var re *RunError
		if errors.As(runErr, &re) {
			return out, &RunError{Index: plan.Run[re.Index], Err: re.Err}
		}
		return out, runErr
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Settings → Config.

// settingKeys fixes the order configuration settings apply in, so
// modifier keys (pmt_c, volume_l, power_scale) compose deterministically
// on top of the objects they modify (material, the server spec).
var settingKeys = []string{
	"servers", "policy", "gv", "wax_threshold", "oracle_wax_state",
	"migration_budget_frac", "inlet_c", "inlet_stdev_c", "seed",
	"material", "pmt_c", "volume_l", "power_scale",
	"trace", "custom_trace", "source", "horizon_min",
	"record_grids", "job_stream", "faults",
}

// configFromSettings builds a Config from a spec's merged settings.
// Unknown keys are an error so spec-file typos fail loudly.
func configFromSettings(s experiment.Settings) (Config, error) {
	known := map[string]bool{}
	for _, k := range settingKeys {
		known[k] = true
	}
	for k := range s {
		if !known[k] {
			return Config{}, fmt.Errorf("vmt: unknown setting %q (known: %v)", k, settingKeys)
		}
	}
	var cfg Config
	for _, k := range settingKeys {
		v, ok := s[k]
		if !ok {
			continue
		}
		if err := applySetting(&cfg, k, v); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

func applySetting(cfg *Config, key string, v any) error {
	switch key {
	case "servers":
		n, err := settingInt(key, v)
		if err != nil {
			return err
		}
		cfg.Servers = n
	case "policy":
		str, ok := v.(string)
		if !ok {
			return fmt.Errorf("vmt: setting policy: want string, got %T", v)
		}
		p, err := parsePolicy(str)
		if err != nil {
			return err
		}
		cfg.Policy = p
	case "gv":
		return settingFloat(key, v, &cfg.GV)
	case "wax_threshold":
		var th float64
		if err := settingFloat(key, v, &th); err != nil {
			return err
		}
		cfg.WaxThreshold = Some(th)
	case "oracle_wax_state":
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("vmt: setting %s: want bool, got %T", key, v)
		}
		cfg.OracleWaxState = b
	case "migration_budget_frac":
		return settingFloat(key, v, &cfg.MigrationBudgetFrac)
	case "inlet_c":
		var inlet float64
		if err := settingFloat(key, v, &inlet); err != nil {
			return err
		}
		cfg.InletTempC = Some(inlet)
	case "inlet_stdev_c":
		return settingFloat(key, v, &cfg.InletStdevC)
	case "seed":
		n, err := settingInt(key, v)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("vmt: setting seed: negative %d", n)
		}
		cfg.Seed = uint64(n)
	case "material":
		str, ok := v.(string)
		if !ok {
			return fmt.Errorf("vmt: setting material: want string, got %T", v)
		}
		switch str {
		case "paper", "":
			cfg.Material = Optional[pcm.Material]{} // default commercial paraffin
		case "inert":
			cfg.Material = Some(pcm.Inert())
		default:
			return fmt.Errorf("vmt: unknown material %q (want paper or inert)", str)
		}
	case "pmt_c":
		var pmt float64
		if err := settingFloat(key, v, &pmt); err != nil {
			return err
		}
		mat := cfg.Material.Or(pcm.CommercialParaffin())
		cfg.Material = Some(mat.WithMeltTemp(pmt))
	case "volume_l":
		var vol float64
		if err := settingFloat(key, v, &vol); err != nil {
			return err
		}
		spec := cfg.Server.Or(thermal.PaperServer())
		spec.WaxVolumeL = vol
		cfg.Server = Some(spec)
	case "power_scale":
		var scale float64
		if err := settingFloat(key, v, &scale); err != nil {
			return err
		}
		spec := cfg.Server.Or(thermal.PaperServer())
		spec.PowerScale = scale
		cfg.Server = Some(spec)
	case "trace":
		spec, err := traceSpecFromSetting(v)
		if err != nil {
			return err
		}
		cfg.Trace = spec
	case "custom_trace":
		tr, err := customTraceFromSetting(v)
		if err != nil {
			return err
		}
		cfg.CustomTrace = tr
	case "source":
		spec, err := sourceSpecFromSetting(v)
		if err != nil {
			return err
		}
		cfg.Source = spec
	case "horizon_min":
		var min float64
		if err := settingFloat(key, v, &min); err != nil {
			return err
		}
		if min <= 0 {
			return fmt.Errorf("vmt: setting horizon_min: want positive minutes, got %v", min)
		}
		cfg.Horizon = time.Duration(min * float64(time.Minute))
	case "record_grids":
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("vmt: setting %s: want bool, got %T", key, v)
		}
		cfg.RecordGrids = b
	case "job_stream":
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("vmt: setting %s: want bool, got %T", key, v)
		}
		cfg.JobStream = b
	case "faults":
		p, err := faultPlanFromSetting(v)
		if err != nil {
			return err
		}
		cfg.Faults = p
	default:
		return fmt.Errorf("vmt: unknown setting %q", key)
	}
	return nil
}

// parsePolicy resolves a policy setting, accepting the canonical names
// plus the rr/cf shorthands the CLI tables use.
func parsePolicy(s string) (Policy, error) {
	switch s {
	case "rr", string(PolicyRoundRobin):
		return PolicyRoundRobin, nil
	case "cf", string(PolicyCoolestFirst):
		return PolicyCoolestFirst, nil
	case string(PolicyVMTTA):
		return PolicyVMTTA, nil
	case string(PolicyVMTWA):
		return PolicyVMTWA, nil
	case string(PolicyVMTPreserve):
		return PolicyVMTPreserve, nil
	}
	return "", fmt.Errorf("vmt: unknown policy %q", s)
}

func settingFloat(key string, v any, dst *float64) error {
	switch n := v.(type) {
	case float64:
		*dst = n
	case int:
		*dst = float64(n)
	default:
		return fmt.Errorf("vmt: setting %s: want number, got %T", key, v)
	}
	return nil
}

func settingInt(key string, v any) (int, error) {
	switch n := v.(type) {
	case int:
		return n, nil
	case float64:
		// Exact integrality test on a decoded JSON number, phrased over
		// the bit pattern (NaN/Inf pass through Trunc unchanged, so they
		// are caught explicitly).
		if math.IsNaN(n) || math.IsInf(n, 0) ||
			math.Float64bits(n) != math.Float64bits(math.Trunc(n)) {
			return 0, fmt.Errorf("vmt: setting %s: want integer, got %v", key, n)
		}
		return int(n), nil
	}
	return 0, fmt.Errorf("vmt: setting %s: want integer, got %T", key, v)
}

// traceSetting converts a trace.Spec into the nested settings value
// spec builders embed (and spec files write by hand).
func traceSetting(s trace.Spec) map[string]any {
	m := map[string]any{
		"days":           s.Days,
		"peak_util":      floatsToAny(s.PeakUtil),
		"trough_util":    s.TroughUtil,
		"peak_hours":     floatsToAny(s.PeakHours),
		"trough_hour":    s.TroughHour,
		"noise_amp":      s.NoiseAmp,
		"peak_sharpness": s.PeakSharpness,
	}
	if s.Seed != 0 {
		m["seed"] = float64(s.Seed)
	}
	return m
}

func traceSpecFromSetting(v any) (trace.Spec, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return trace.Spec{}, fmt.Errorf("vmt: setting trace: want object, got %T", v)
	}
	var s trace.Spec
	for k, fv := range m {
		var err error
		switch k {
		case "days":
			s.Days, err = settingInt("trace.days", fv)
		case "peak_util":
			s.PeakUtil, err = settingFloats("trace.peak_util", fv)
		case "trough_util":
			err = settingFloat("trace.trough_util", fv, &s.TroughUtil)
		case "peak_hours":
			s.PeakHours, err = settingFloats("trace.peak_hours", fv)
		case "trough_hour":
			err = settingFloat("trace.trough_hour", fv, &s.TroughHour)
		case "noise_amp":
			err = settingFloat("trace.noise_amp", fv, &s.NoiseAmp)
		case "peak_sharpness":
			err = settingFloat("trace.peak_sharpness", fv, &s.PeakSharpness)
		case "seed":
			var n int
			n, err = settingInt("trace.seed", fv)
			s.Seed = uint64(n)
		default:
			err = fmt.Errorf("vmt: unknown trace setting %q", k)
		}
		if err != nil {
			return trace.Spec{}, err
		}
	}
	return s, nil
}

// faultSetting converts a fault.Plan into its nested settings value:
// the plan's own JSON object form, widened to map[string]any, so specs
// built in Go expand (and hash) identically to specs decoded from JSON
// files.
func faultSetting(p fault.Plan) map[string]any {
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("vmt: encoding fault plan: %v", err))
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		panic(fmt.Sprintf("vmt: round-tripping fault plan: %v", err))
	}
	return m
}

// faultPlanFromSetting decodes a faults setting back into a validated
// plan. Unknown keys are rejected so spec-file typos fail loudly, like
// every other setting.
func faultPlanFromSetting(v any) (*fault.Plan, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("vmt: setting faults: want object, got %T", v)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("vmt: setting faults: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var p fault.Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("vmt: setting faults: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// sourceSetting converts a workload.SourceSpec into its nested
// settings value: the spec's own canonical JSON object form, widened
// to map[string]any, so specs built in Go expand (and hash)
// identically to specs decoded from JSON files — the faultSetting
// pattern applied to arrival sources.
func sourceSetting(spec workload.SourceSpec) map[string]any {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("vmt: encoding source spec: %v", err))
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		panic(fmt.Sprintf("vmt: round-tripping source spec: %v", err))
	}
	return m
}

// sourceSpecFromSetting decodes a source setting back into a
// validated spec. Unknown keys are rejected so spec-file typos fail
// loudly, like every other setting.
func sourceSpecFromSetting(v any) (*workload.SourceSpec, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("vmt: setting source: want object, got %T", v)
	}
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("vmt: setting source: %w", err)
	}
	spec, err := workload.ParseSourceSpec(b)
	if err != nil {
		return nil, fmt.Errorf("vmt: setting source: %w", err)
	}
	return spec, nil
}

// customTraceSetting converts an externally supplied trace into its
// settings value: {"step_s": seconds, "samples": [...]}.
func customTraceSetting(samples []float64, step time.Duration) map[string]any {
	return map[string]any{
		"step_s":  step.Seconds(),
		"samples": floatsToAny(samples),
	}
}

func customTraceFromSetting(v any) (*trace.Trace, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("vmt: setting custom_trace: want object, got %T", v)
	}
	var stepS float64
	var samples []float64
	for k, fv := range m {
		var err error
		switch k {
		case "step_s":
			err = settingFloat("custom_trace.step_s", fv, &stepS)
		case "samples":
			samples, err = settingFloats("custom_trace.samples", fv)
		default:
			err = fmt.Errorf("vmt: unknown custom_trace setting %q", k)
		}
		if err != nil {
			return nil, err
		}
	}
	return trace.FromSamples(samples, time.Duration(stepS*float64(time.Second)))
}

func settingFloats(key string, v any) ([]float64, error) {
	switch vs := v.(type) {
	case []float64:
		return append([]float64(nil), vs...), nil
	case []any:
		out := make([]float64, len(vs))
		for i, e := range vs {
			if err := settingFloat(key, e, &out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("vmt: setting %s: want number array, got %T", key, v)
}

// floatsToAny widens a float slice for settings embedding, so specs
// built in Go expand identically to specs decoded from JSON.
func floatsToAny(fs []float64) []any {
	out := make([]any, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

// ---------------------------------------------------------------------
// Spec execution.

// SpecRun holds one executed spec: the expanded grid and the simulation
// results, with every point's matched baseline resolvable. Results may
// be shared with the session cache — treat them as read-only.
type SpecRun struct {
	Spec experiment.Spec
	// Points and Results align: Results[i] is the run of Points[i].
	Points  []experiment.Point
	Results []*Result
	// Baselines aligns with Spec.BaselinePoints().
	Baselines   []*Result
	baselineIdx []int
}

// BaselineFor returns the baseline result matched to point i.
func (sr *SpecRun) BaselineFor(i int) *Result {
	return sr.Baselines[sr.baselineIdx[i]]
}

// RunSpecResults validates and executes a spec: the baselines and the
// full grid run as one deduplicated batch through the session run
// cache on top of RunManyOpts.
func RunSpecResults(spec experiment.Spec, opts BatchOptions) (*SpecRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	points := spec.Points()
	baselines := spec.BaselinePoints()
	baselineIdx, err := spec.BaselineIndex(points, baselines)
	if err != nil {
		return nil, err
	}
	cfgs := make([]Config, 0, len(baselines)+len(points))
	for _, b := range baselines {
		cfg, err := configFromSettings(b.Settings)
		if err != nil {
			return nil, fmt.Errorf("vmt: spec %s baseline: %w", spec.Name, err)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, p := range points {
		cfg, err := configFromSettings(p.Settings)
		if err != nil {
			return nil, fmt.Errorf("vmt: spec %s point %d: %w", spec.Name, p.Index, err)
		}
		cfgs = append(cfgs, cfg)
	}
	runs, err := RunManyCached(cfgs, opts)
	if err != nil {
		return nil, err
	}
	return &SpecRun{
		Spec:        spec,
		Points:      points,
		Results:     runs[len(baselines):],
		Baselines:   runs[:len(baselines)],
		baselineIdx: baselineIdx,
	}, nil
}

// SpecReport is a reduced spec execution: one generic row per surviving
// label tuple, ready for tabulation or JSON emission.
type SpecReport struct {
	Spec experiment.Spec  `json:"spec"`
	Rows []experiment.Row `json:"rows"`
}

// RunSpec executes a spec and applies its named reducer — the
// everything-is-data path cmd/vmtsweep -spec uses. Studies with typed
// outputs use RunSpecResults and reduce themselves.
func RunSpec(spec experiment.Spec, opts BatchOptions) (*SpecReport, error) {
	sr, err := RunSpecResults(spec, opts)
	if err != nil {
		return nil, err
	}
	rows, err := sr.reduce()
	if err != nil {
		return nil, err
	}
	return &SpecReport{Spec: spec, Rows: rows}, nil
}

// pointReduction computes point i's peak cooling reduction against its
// matched baseline.
func (sr *SpecRun) pointReduction(i int) (float64, error) {
	return peakReductionPct(sr.BaselineFor(i), sr.Results[i])
}

func peakReductionPct(baseline, variant *Result) (float64, error) {
	base := baseline.PeakCoolingW()
	if base <= 0 {
		return 0, fmt.Errorf("vmt: non-positive baseline peak")
	}
	return (base - variant.PeakCoolingW()) / base * 100, nil
}

// reduce applies the spec's named reducer over the results.
func (sr *SpecRun) reduce() ([]experiment.Row, error) {
	switch sr.Spec.Reducer {
	case experiment.ReducePeakReduction:
		rows := make([]experiment.Row, len(sr.Points))
		for i, p := range sr.Points {
			red, err := sr.pointReduction(i)
			if err != nil {
				return nil, err
			}
			rows[i] = experiment.Row{
				Labels: p.Labels,
				Values: map[string]float64{"reduction_pct": red},
			}
		}
		return rows, nil
	case experiment.ReducePeakReductionMean:
		return sr.reduceGrouped(sr.Spec.MeanOver, func(row *experiment.Row, group []int) error {
			var sum float64
			for _, i := range group {
				red, err := sr.pointReduction(i)
				if err != nil {
					return err
				}
				sum += red
			}
			row.Values["reduction_pct"] = sum / float64(len(group))
			return nil
		})
	case experiment.ReducePeakReductionBest:
		axis := sr.Spec.BestOver
		return sr.reduceGrouped([]string{axis}, func(row *experiment.Row, group []int) error {
			best := math.Inf(-1)
			var bestLabel any
			for _, i := range group {
				red, err := sr.pointReduction(i)
				if err != nil {
					return err
				}
				if red > best {
					best = red
					bestLabel = sr.Points[i].Labels[axis]
				}
			}
			row.Values["reduction_pct"] = best
			if f, ok := bestLabel.(float64); ok {
				row.Values["best_"+axis] = f
			} else {
				row.Labels["best_"+axis] = bestLabel
			}
			return nil
		})
	}
	return nil, fmt.Errorf("vmt: unknown reducer %q", sr.Spec.Reducer)
}

// reduceGrouped buckets points by their labels minus the dropped axes
// (first-seen grid order, so reductions accumulate in the same order
// the sequential studies used) and emits one row per bucket.
func (sr *SpecRun) reduceGrouped(drop []string, fill func(*experiment.Row, []int) error) ([]experiment.Row, error) {
	dropped := map[string]bool{}
	for _, d := range drop {
		dropped[d] = true
	}
	var keep []string
	for _, ax := range sr.Spec.Axes {
		if !dropped[ax.Name] {
			keep = append(keep, ax.Name)
		}
	}
	groups := map[string][]int{}
	var order []string
	for i, p := range sr.Points {
		key := ""
		for _, k := range keep {
			key += fmt.Sprintf("%v\x00", p.Labels[k])
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	rows := make([]experiment.Row, 0, len(order))
	for _, key := range order {
		group := groups[key]
		row := experiment.Row{
			Labels: map[string]any{},
			Values: map[string]float64{},
		}
		for _, k := range keep {
			row.Labels[k] = sr.Points[group[0]].Labels[k]
		}
		if err := fill(&row, group); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
