package vmt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmt/internal/experiment"
	"vmt/internal/telemetry"
	"vmt/internal/trace"
)

// withSmallTrace pins a spec to the fast single-day test trace.
func withSmallTrace(spec experiment.Spec) experiment.Spec {
	if spec.Base == nil {
		spec.Base = experiment.Settings{}
	}
	spec.Base["trace"] = traceSetting(smallTrace())
	return spec
}

func TestConfigKeyCanonical(t *testing.T) {
	base := Scenario(5, PolicyVMTTA, 22)
	k1, err := configKey(base)
	if err != nil {
		t.Fatal(err)
	}
	// Observational knobs and the physics worker count are not part of
	// the run's identity.
	same := base
	same.PhysicsWorkers = 8
	same.Metrics = telemetry.NewRegistry()
	k2, err := configKey(same)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("observational fields changed the config key")
	}
	// Explicit defaults hash like resolved zeros.
	explicit := base
	explicit.InletTempC = Some(22.0)
	explicit.Step = time.Minute
	k3, err := configKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k3 {
		t.Error("explicit paper defaults hash differently from zero values")
	}
	// Simulation-relevant fields are.
	diff := base
	diff.GV = 24
	k4, err := configKey(diff)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k4 {
		t.Error("distinct GVs collided")
	}
	// A custom trace overrides the spec trace entirely.
	tr, err := trace.FromSamples(make([]float64, 60), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	c1 := base
	c1.CustomTrace = tr
	c2 := base
	c2.CustomTrace = tr
	c2.Trace = smallTrace() // ignored when CustomTrace is set
	k5, _ := configKey(c1)
	k6, _ := configKey(c2)
	if k5 != k6 {
		t.Error("ignored Trace field changed a custom-trace key")
	}
	if k5 == k1 {
		t.Error("custom trace collided with the spec trace")
	}
}

func TestRunManyCachedDedup(t *testing.T) {
	defer runCache.SetEnabled(true)
	runCache.SetEnabled(true)

	reg := telemetry.NewRegistry()
	SetDefaultObservers(Observers{Metrics: reg})
	defer SetDefaultObservers(Observers{})
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	vmtCfg := Scenario(3, PolicyVMTTA, 22)
	vmtCfg.Trace = smallTrace()

	// Unique per-test configs (seed) so earlier tests' cache entries
	// cannot interfere with the counters.
	cfg.Seed = 777
	vmtCfg.Seed = 777

	runs, err := RunManyCached([]Config{cfg, vmtCfg, cfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0] != runs[2] {
		t.Error("duplicate configs should share one result")
	}
	if hits := reg.Counter("experiment_cache_hits").Value(); hits != 1 {
		t.Errorf("first batch hits = %d, want 1 (intra-batch dup)", hits)
	}
	if misses := reg.Counter("experiment_cache_misses").Value(); misses != 2 {
		t.Errorf("first batch misses = %d, want 2", misses)
	}

	// Second batch: everything is cached, and cached results are the
	// same pointers.
	runs2, err := RunManyCached([]Config{cfg, vmtCfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if runs2[0] != runs[0] || runs2[1] != runs[1] {
		t.Error("second batch should be served from the cache")
	}
	if hits := reg.Counter("experiment_cache_hits").Value(); hits != 3 {
		t.Errorf("cumulative hits = %d, want 3", hits)
	}
}

// Cache-on and cache-off executions are bit-identical: the cache only
// skips simulating configurations whose result is already known.
func TestRunManyCachedBitIdenticalDisabled(t *testing.T) {
	defer runCache.SetEnabled(true)

	cfg := Scenario(4, PolicyVMTWA, 20)
	cfg.Trace = smallTrace()
	cfg.Seed = 778

	runCache.SetEnabled(true)
	on, err := RunManyCached([]Config{cfg, cfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runCache.SetEnabled(false)
	off, err := RunManyCached([]Config{cfg, cfg}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if off[0] == off[1] {
		t.Error("disabled cache should not dedup")
	}
	for _, res := range [3]*Result{on[0], off[0], off[1]} {
		if res.CoolingLoadW.Len() != on[1].CoolingLoadW.Len() {
			t.Fatal("series lengths diverged")
		}
		for i, v := range on[1].CoolingLoadW.Values {
			if res.CoolingLoadW.Values[i] != v {
				t.Fatalf("cooling sample %d diverged cache-on vs cache-off", i)
			}
		}
	}
}

func TestRunManyCachedPartialFailure(t *testing.T) {
	good := BaselineScenario(3)
	good.Trace = smallTrace()
	good.Seed = 779
	bad := Scenario(0, PolicyRoundRobin, 0) // zero servers: fails validation
	_, err := RunManyCached([]Config{good, bad}, BatchOptions{})
	re, ok := err.(*RunError)
	if !ok {
		t.Fatalf("want *RunError, got %v", err)
	}
	if re.Index != 1 {
		t.Fatalf("failure index = %d, want 1 (remapped through the plan)", re.Index)
	}
	// The failed config must not poison the cache.
	if _, err := RunManyCached([]Config{good}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}
}

// The spec path and the pre-engine direct path produce bit-identical
// sweeps.
func TestRunSpecMatchesDirect(t *testing.T) {
	gvs := []float64{20, 24}
	spec := withSmallTrace(GVSweepSpec(4, PolicyVMTTA, gvs))
	sr, err := RunSpecResults(spec, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseCfg := BaselineScenario(4)
	baseCfg.Trace = smallTrace()
	baseline, err := Run(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, gv := range gvs {
		cfg := Scenario(4, PolicyVMTTA, gv)
		cfg.Trace = smallTrace()
		direct, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := sr.Results[i]
		if got.CoolingLoadW.Len() != direct.CoolingLoadW.Len() {
			t.Fatalf("gv %g: series length diverged", gv)
		}
		for j, v := range direct.CoolingLoadW.Values {
			if got.CoolingLoadW.Values[j] != v {
				t.Fatalf("gv %g sample %d: spec path diverged from direct Run", gv, j)
			}
		}
	}
	for j, v := range baseline.CoolingLoadW.Values {
		if sr.Baselines[0].CoolingLoadW.Values[j] != v {
			t.Fatalf("baseline sample %d diverged", j)
		}
	}
}

// Encode → decode → execute: the full spec-file path check.sh
// exercises. The decoded spec must expand to the same grid and reduce
// to the same rows as the in-memory one.
func TestSpecRoundTripExecute(t *testing.T) {
	spec := withSmallTrace(GVSweepSpec(3, PolicyVMTTA, []float64{20, 24}))
	var buf bytes.Buffer
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := experiment.DecodeSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSpec(spec, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpec(decoded, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count changed: %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if got.Rows[i].Values["reduction_pct"] != want.Rows[i].Values["reduction_pct"] {
			t.Errorf("row %d: decoded spec produced %v, in-memory %v",
				i, got.Rows[i].Values["reduction_pct"], want.Rows[i].Values["reduction_pct"])
		}
		if got.Rows[i].Labels["gv"] != want.Rows[i].Labels["gv"] {
			t.Errorf("row %d labels diverged", i)
		}
	}
}

func TestRunSpecMeanAndBestReducers(t *testing.T) {
	// Mean over seeds.
	mean := withSmallTrace(InletVariationSpec(3, PolicyVMTTA, []float64{22}, []float64{1}, 2))
	rep, err := RunSpec(mean, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("mean reducer rows = %d, want 1", len(rep.Rows))
	}
	if _, ok := rep.Rows[0].Labels["seed"]; ok {
		t.Error("mean reducer leaked the averaged axis label")
	}
	// Best over the GV grid.
	best := withSmallTrace(PMTSweepSpec(3, []float64{35.7}, []float64{20, 24}))
	rep, err = RunSpec(best, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("best reducer rows = %d, want 1", len(rep.Rows))
	}
	bestGV, ok := rep.Rows[0].Values["best_gv"]
	if !ok || (bestGV != 20 && bestGV != 24) {
		t.Errorf("best reducer gv = %v, want a grid value", rep.Rows[0].Values)
	}
}

func TestConfigFromSettingsErrors(t *testing.T) {
	cases := []struct {
		name string
		s    experiment.Settings
		want string
	}{
		{"unknown key", experiment.Settings{"wat": 1.0}, "unknown setting"},
		{"bad policy", experiment.Settings{"policy": "nope"}, "unknown policy"},
		{"bad policy type", experiment.Settings{"policy": 3.0}, "want string"},
		{"bad servers", experiment.Settings{"servers": 1.5}, "want integer"},
		{"bad material", experiment.Settings{"material": "gold"}, "unknown material"},
		{"bad bool", experiment.Settings{"oracle_wax_state": 1.0}, "want bool"},
		{"bad trace", experiment.Settings{"trace": map[string]any{"dayz": 2.0}}, "unknown trace setting"},
		{"negative seed", experiment.Settings{"seed": -1.0}, "negative"},
	}
	for _, tc := range cases {
		_, err := configFromSettings(tc.s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// The full vocabulary parses.
	cfg, err := configFromSettings(experiment.Settings{
		"servers": 8, "policy": "vmt-wa", "gv": 22.0, "wax_threshold": 0.9,
		"oracle_wax_state": true, "migration_budget_frac": 0.1,
		"inlet_c": 24.0, "inlet_stdev_c": 1.0, "seed": 3.0,
		"pmt_c": 37.0, "volume_l": 5.0, "power_scale": 1.1,
		"trace": traceSetting(smallTrace()), "record_grids": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Servers != 8 || cfg.Policy != PolicyVMTWA || cfg.GV != 22 ||
		cfg.Material.Value().MeltTempC != 37 || cfg.Server.Value().WaxVolumeL != 5 ||
		cfg.Server.Value().PowerScale != 1.1 || cfg.Seed != 3 || !cfg.RecordGrids {
		t.Fatalf("settings lost: %+v", cfg)
	}
	if cfg.Trace.Days != 1 {
		t.Fatalf("trace setting lost: %+v", cfg.Trace)
	}
}

// RunManyCached is safe under concurrent study execution; check.sh
// runs this under -race (the TestRunMany pattern matches it).
func TestRunManyCachedConcurrentStudies(t *testing.T) {
	defer runCache.SetEnabled(true)
	runCache.SetEnabled(true)
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	cfg.Seed = 780
	vmtCfg := Scenario(3, PolicyVMTTA, 22)
	vmtCfg.Trace = smallTrace()
	vmtCfg.Seed = 780

	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			_, err := RunManyCached([]Config{cfg, vmtCfg}, BatchOptions{})
			errc <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheKeyExclusionsConsistent is the runtime mirror of vmtlint's
// cachekey analyzer: every exported Config field must be either a
// hashableConfig field or a documented cacheKeyExclusions entry — never
// both, never neither — and every exclusion key must name a live field.
func TestCacheKeyExclusionsConsistent(t *testing.T) {
	hashed := map[string]bool{}
	ht := reflect.TypeOf(hashableConfig{})
	for i := 0; i < ht.NumField(); i++ {
		hashed[ht.Field(i).Name] = true
	}

	ct := reflect.TypeOf(Config{})
	fields := map[string]bool{}
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if !f.IsExported() {
			continue
		}
		fields[f.Name] = true
		_, excluded := cacheKeyExclusions[f.Name]
		switch {
		case hashed[f.Name] && excluded:
			t.Errorf("Config.%s is both hashed and excluded; pick one", f.Name)
		case !hashed[f.Name] && !excluded:
			t.Errorf("Config.%s is neither hashed in hashableConfig nor excluded in cacheKeyExclusions", f.Name)
		}
	}
	for name, reason := range cacheKeyExclusions {
		if !fields[name] {
			t.Errorf("cacheKeyExclusions lists %q, which is not an exported Config field", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("cacheKeyExclusions[%q] has an empty reason", name)
		}
	}
}
