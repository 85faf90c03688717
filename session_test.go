package vmt

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmt/internal/stats"
	"vmt/internal/telemetry"
	"vmt/internal/trace"
	"vmt/internal/workload"
)

func sessionConfig() Config {
	cfg := Scenario(6, PolicyVMTTA, 22)
	cfg.Trace = smallTrace()
	cfg.Step = 2 * time.Minute
	return cfg
}

// Every *stats.Series field of Result is named by exactly one
// runSeries row, under a unique name, so no output that walks the
// table (export, stream, span, fingerprint, identicalSeries) can miss
// a series.
func TestRunSeriesCoversResult(t *testing.T) {
	r := &Result{}
	rows := map[**stats.Series][]string{}
	names := map[string]bool{}
	for _, row := range runSeries {
		if names[row.name] {
			t.Errorf("series name %q is used twice", row.name)
		}
		names[row.name] = true
		p := row.field(r)
		rows[p] = append(rows[p], row.name)
	}
	rv := reflect.ValueOf(r).Elem()
	fields := 0
	for i := 0; i < rv.NumField(); i++ {
		p, ok := rv.Field(i).Addr().Interface().(**stats.Series)
		if !ok {
			continue
		}
		fields++
		if n := len(rows[p]); n != 1 {
			t.Errorf("Result.%s appears in %d runSeries rows %v, want 1", rv.Type().Field(i).Name, n, rows[p])
		}
	}
	if fields != len(runSeries) {
		t.Errorf("runSeries has %d rows for %d Result series", len(runSeries), fields)
	}
	for row, want := range map[int]string{rowCoolingLoad: "cooling_load_w", rowTotalPower: "total_power_w"} {
		if runSeries[row].name != want {
			t.Errorf("runSeries[%d] is %q, want %q", row, runSeries[row].name, want)
		}
	}
}

func TestSessionStepToCompletionMatchesRun(t *testing.T) {
	cfg := sessionConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !s.Done() {
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 10000 {
			t.Fatal("session never finished")
		}
	}
	got, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := identicalSeries(want, got); d != "" {
		t.Fatalf("stepped session diverged from Run: %s", d)
	}
	if got.CoolingLoadW.Len() != want.CoolingLoadW.Len() {
		t.Fatalf("sample counts: session %d, run %d", got.CoolingLoadW.Len(), want.CoolingLoadW.Len())
	}
}

func TestSessionObserve(t *testing.T) {
	s, err := Open(sessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	obs := s.Observe()
	if obs.Tick != 0 || obs.Done || len(obs.Servers) != 0 {
		t.Fatalf("pre-step observation: %+v", obs)
	}
	// Open places nothing: the initial load lands on the first step,
	// so pre-step Place and SetPlacer still steer it.
	if obs.BusyCores != 0 {
		t.Fatalf("pre-step observation has %d busy cores", obs.BusyCores)
	}
	if err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	obs = s.Observe()
	if obs.Tick != 3 || obs.SimTime != 6*time.Minute {
		t.Fatalf("after Step(3): tick=%d sim=%v", obs.Tick, obs.SimTime)
	}
	if len(obs.Servers) != 6 {
		t.Fatalf("want 6 server observations, got %d", len(obs.Servers))
	}
	if obs.TotalPowerW <= 0 || obs.MeanAirTempC <= 0 {
		t.Fatalf("aggregates not populated: %+v", obs)
	}
	if obs.BusyCores == 0 {
		t.Fatal("no jobs placed after three ticks")
	}
	if obs.HotGroupSize <= 0 {
		t.Fatalf("VMT-TA session reports hot group %d", obs.HotGroupSize)
	}
	hot := 0
	for i, so := range obs.Servers {
		if so.ID != i {
			t.Fatalf("server %d has ID %d", i, so.ID)
		}
		if so.Group == "hot" {
			hot++
		}
	}
	if hot != obs.HotGroupSize {
		t.Fatalf("hot-labeled servers %d != HotGroupSize %d", hot, obs.HotGroupSize)
	}
	if obs.Utilization < 0 || obs.Utilization > 1 {
		t.Fatalf("utilization %v out of range", obs.Utilization)
	}
}

func TestSessionPlaceDirective(t *testing.T) {
	s, err := Open(sessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Place("nope", 0); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload: %v", err)
	}
	if err := s.Place(workload.WebSearch.Name, 99); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range server: %v", err)
	}
	if err := s.Place(workload.WebSearch.Name, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	obs := s.Observe()
	if obs.PlacementsOverridden != 1 {
		t.Fatalf("Overridden = %d, want 1", obs.PlacementsOverridden)
	}
	if obs.Servers[5].BusyCores == 0 {
		t.Fatal("directed server received no job")
	}
}

func TestSessionSetPlacer(t *testing.T) {
	s, err := Open(sessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetPlacer(func(string) int { return 2 })
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	obs := s.Observe()
	if obs.PlacementsOverridden == 0 {
		t.Fatal("standing placer decided nothing")
	}
	if obs.Servers[2].BusyCores == 0 {
		t.Fatal("funneled server received no jobs")
	}
	s.SetPlacer(nil)
}

func TestSessionOpenEndedSource(t *testing.T) {
	cfg := sessionConfig()
	cfg.Trace = smallTrace() // ignored once Source is set
	cfg.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.5, Events: 30}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("open-ended session reports done")
	}
	if err := s.StepAll(); err == nil || !strings.Contains(err.Error(), "open-ended") {
		t.Fatalf("StepAll on open-ended session: %v", err)
	}
	// Run(cfg) must refuse too: it would never return.
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an open-ended config")
	}
	// But stepping works indefinitely, past any trace length.
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	obs := s.Observe()
	if obs.Tick != 10 || obs.Done {
		t.Fatalf("after 10 steps: %+v", obs)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.CoolingLoadW.Len() != 10 {
		t.Fatalf("partial result has %d samples, want 10", res.CoolingLoadW.Len())
	}
}

func TestSessionHorizonBoundsSource(t *testing.T) {
	cfg := sessionConfig()
	cfg.Source = &workload.SourceSpec{Kind: "bursty", Level: 0.3,
		BurstUtil: 0.8, BurstProb: 0.2, EpochMin: 10}
	cfg.Horizon = 40 * time.Minute // 20 ticks at the 2-minute step
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoolingLoadW.Len() != 20 {
		t.Fatalf("horizon run has %d samples, want 20", res.CoolingLoadW.Len())
	}
	// Step past the horizon: the clamp stops exactly at it.
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(1000); err != nil {
		t.Fatal(err)
	}
	if !s.Done() || s.Tick() != 20 {
		t.Fatalf("after clamped step: done=%v tick=%d", s.Done(), s.Tick())
	}
	got, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := identicalSeries(res, got); d != "" {
		t.Fatalf("horizon-clamped session diverged: %s", d)
	}
}

func TestSessionSourceAndCustomTraceExclusive(t *testing.T) {
	cfg := sessionConfig()
	cfg.Source = &workload.SourceSpec{Kind: "poisson", Level: 0.5, Events: 30}
	tr, err := trace.Generate(cfg.Trace, cfg.Step)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CustomTrace = tr
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Source+CustomTrace: %v", err)
	}
}

func TestSessionCancellationPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := OpenCtx(ctx, sessionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	cancel()
	err = s.Step(5)
	if err != context.Canceled {
		t.Fatalf("step after cancel: %v", err)
	}
	if s.Tick() != 2 {
		t.Fatalf("clock after cancelled step: tick %d, want 2", s.Tick())
	}
	res, err := s.Close()
	if err != context.Canceled {
		t.Fatalf("close after cancel: %v", err)
	}
	// The partial prefix is clean: the two pre-cancel ticks sampled.
	if res == nil || res.CoolingLoadW.Len() != 2 {
		t.Fatalf("partial result: %+v", res)
	}
	// A closed session refuses further work, idempotently.
	if err := s.Step(1); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("step after close: %v", err)
	}
	if _, err := s.Close(); err != context.Canceled {
		t.Fatalf("second close: %v", err)
	}
}

// TestSessionCancellationStopsAtTickBoundary: a cancel that lands in
// the middle of StepAll stops the run at the next tick boundary. The
// clock, the partial Result, the span stream and the band counter all
// end on the last completed tick; no band runs after it.
func TestSessionCancellationStopsAtTickBoundary(t *testing.T) {
	const stopTick = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := sessionConfig()
	stopAt := stopTick * cfg.Step
	rec := telemetry.NewRecorder()
	cfg.Tracer = telemetry.TracerFunc(func(ev telemetry.SpanEvent) {
		rec.Emit(ev)
		if ev.Name == "sample" && ev.At == stopAt {
			cancel()
		}
	})
	cfg.Metrics = telemetry.NewRegistry()
	s, err := OpenCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepAll(); err != context.Canceled {
		t.Fatalf("StepAll after cancel: %v", err)
	}
	if s.Tick() != stopTick || s.Now() != stopAt || s.Done() {
		t.Fatalf("clock after cancel: tick=%d now=%v done=%v, want tick %d at %v",
			s.Tick(), s.Now(), s.Done(), stopTick, stopAt)
	}
	res, err := s.Close()
	if err != context.Canceled {
		t.Fatalf("close after cancel: %v", err)
	}
	if res.CoolingLoadW.Len() != stopTick {
		t.Fatalf("partial result has %d samples, want %d", res.CoolingLoadW.Len(), stopTick)
	}
	for _, ev := range rec.Events() {
		if ev.At > stopAt {
			t.Fatalf("span %q at %v after the cancelled tick %v", ev.Name, ev.At, stopAt)
		}
	}
	// schedule@0, then physics, schedule and sample per completed tick.
	if got, want := cfg.Metrics.Counter("sim_events_dispatched").Value(), uint64(1+3*stopTick); got != want {
		t.Fatalf("sim_events_dispatched = %d, want %d", got, want)
	}
}

// TestSessionRaggedHorizon characterizes a horizon that is not a
// whole number of steps: the last tick lands before it, the clock then
// settles on the horizon itself, and stepping or running to the end
// agree on every count.
func TestSessionRaggedHorizon(t *testing.T) {
	cfg := sessionConfig()
	cfg.Horizon = 41 * time.Minute // 20 whole 2-minute ticks, then 1 minute
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	if s.Tick() != 20 || s.Now() != cfg.Horizon || !s.Done() {
		t.Fatalf("after StepAll: tick=%d now=%v done=%v", s.Tick(), s.Now(), s.Done())
	}
	want, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want.CoolingLoadW.Len() != 20 {
		t.Fatalf("StepAll recorded %d samples, want 20", want.CoolingLoadW.Len())
	}

	s, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		if s.Tick() != int64(i) || s.Now() != time.Duration(i)*cfg.Step || s.Done() {
			t.Fatalf("step %d: tick=%d now=%v done=%v", i, s.Tick(), s.Now(), s.Done())
		}
	}
	// The 21st step covers the trailing minute: no tick is due in it.
	for i := 0; i < 2; i++ {
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
		if s.Tick() != 20 || s.Now() != cfg.Horizon || !s.Done() {
			t.Fatalf("trailing step: tick=%d now=%v done=%v", s.Tick(), s.Now(), s.Done())
		}
	}
	got, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := identicalSeries(want, got); d != "" {
		t.Fatalf("stepped ragged-horizon session diverged from StepAll: %s", d)
	}
}

func TestSessionStreamSealsOnStepBoundaries(t *testing.T) {
	var recs []telemetry.WindowRecord
	sink := sinkFunc(func(rec telemetry.WindowRecord) { recs = append(recs, rec) })
	cfg := sessionConfig()
	cfg.Stream = telemetry.NewStream(telemetry.StreamOptions{WindowTicks: 4, Sink: sink})
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Window 0 covers ticks [0,3]; sample ticks are 1-based, so after
	// Step(3) it has seen every tick it ever will (1..3) and the step
	// boundary seals it without waiting for the run to end.
	if err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no windows sealed on the step boundary")
	}
	sealed := len(recs)
	// Two more ticks open (but do not complete) window 1; Close's
	// flush seals the trailing partial.
	if err := s.Step(2); err != nil {
		t.Fatal(err)
	}
	if len(recs) != sealed {
		t.Fatalf("incomplete window sealed early: %d -> %d records", sealed, len(recs))
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) <= sealed {
		t.Fatal("close sealed no trailing windows")
	}
}

type sinkFunc func(telemetry.WindowRecord)

func (f sinkFunc) EmitWindow(rec telemetry.WindowRecord) { f(rec) }
