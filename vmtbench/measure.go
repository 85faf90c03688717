package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmt"
)

// End-to-end measurement: the program as a user drives it, untraced.
// Each run repeats the workload until the next repetition would overrun
// the time budget, checks every repetition's output, and reports
// medians.

// setupReps is how many times one run repeats set-up; setup_s is their
// median.
const setupReps = 15

// tally counts attempted and failed simulations.
type tally struct{ attempted, failed int }

func (t *tally) record(runs int, err error, log func(string)) {
	t.attempted += runs
	if err != nil {
		t.failed += runs
		log(err.Error())
	}
}

// protect runs fn, turning a panic into an error.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB is the peak resident set of this process image (VmHWM).
// getrusage's ru_maxrss is not used: Linux carries it over from the
// parent across fork and exec, so it reports the launcher's peak
// whenever that is the larger one.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok { // "VmHWM:   8464 kB"
			fields := strings.Fields(v)
			if len(fields) != 2 || fields[1] != "kB" {
				return math.NaN()
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

const mb = 1 << 20

// steppedRep is one stepped session: Open, Step(1) to the horizon,
// Close.
type steppedRep struct {
	out   output
	wall  time.Duration // Open through Close
	alloc uint64
	ticks []time.Duration
}

func runStepped(cfg vmt.Config, n int) (rep steppedRep, err error) {
	rep.ticks = make([]time.Duration, 0, n)
	err = protect(func() error {
		a0 := totalAlloc()
		t0 := time.Now()
		s, err := vmt.Open(cfg)
		if err != nil {
			return err
		}
		for !s.Done() {
			t := time.Now()
			err := s.Step(1)
			rep.ticks = append(rep.ticks, time.Since(t))
			if err != nil {
				s.Close()
				return err
			}
		}
		res, err := s.Close()
		rep.wall = time.Since(t0)
		rep.alloc = totalAlloc() - a0
		if err != nil {
			return err
		}
		rep.out = outputOf(res)
		return nil
	})
	return rep, err
}

// progressLog collects the batch runner's per-run progress lines.
type progressLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (p *progressLog) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.Write(b)
}

// runWalls parses each run's wall time from lines of the form
// "vmt: run i/n done (...) in 412ms — ...".
func (p *progressLog) runWalls() ([]time.Duration, error) {
	var walls []time.Duration
	for _, line := range strings.Split(strings.TrimSpace(p.buf.String()), "\n") {
		_, rest, ok := strings.Cut(line, ") in ")
		if !ok {
			return nil, fmt.Errorf("unparsed progress line %q", line)
		}
		field, _, _ := strings.Cut(rest, " ")
		d, err := time.ParseDuration(field)
		if err != nil {
			return nil, fmt.Errorf("progress line %q: %w", line, err)
		}
		walls = append(walls, d)
	}
	return walls, nil
}

// sweepRep is one execution of the fault study through vmt.RunSpec,
// from a cold run cache.
type sweepRep struct {
	rows     []row
	wall     time.Duration
	alloc    uint64
	runWalls []time.Duration
}

func runSweep(in inputs) (rep sweepRep, err error) {
	err = protect(func() error {
		spec, err := in.spec()
		if err != nil {
			return err
		}
		vmt.RunCache().Reset()
		var prog progressLog
		a0 := totalAlloc()
		t0 := time.Now()
		sr, err := vmt.RunSpec(spec, vmt.BatchOptions{Workers: in.def.batchWorkers, Progress: &prog})
		rep.wall = time.Since(t0)
		rep.alloc = totalAlloc() - a0
		if err != nil {
			return err
		}
		if rep.rows, err = rowsOf(sr.Rows); err != nil {
			return err
		}
		rep.runWalls, err = prog.runWalls()
		return err
	})
	return rep, err
}

// runResult is what one benchmark run prints.
type runResult struct {
	tally
	metrics map[string]float64
	info    map[string]any
}

// budget decides whether another repetition fits: at least one always
// runs, then only while the next (assumed as long as the last) ends
// inside the budget.
type budget struct {
	start   time.Time
	seconds float64
}

func (b budget) more(reps int, last time.Duration) bool {
	if reps == 0 {
		return true
	}
	return time.Since(b.start).Seconds()+last.Seconds() <= b.seconds
}

// measureSetup returns the median of setupReps timings of fn.
func measureSetup(fn func() (time.Duration, error)) (float64, error) {
	var xs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), nil
}

// endToEnd is the untraced run of a workload.
func endToEnd(in inputs, seconds float64, log func(string)) (runResult, error) {
	chk, err := newChecker(in)
	if err != nil {
		return runResult{}, err
	}
	if in.def.stepped {
		return endToEndStepped(in, chk, seconds, log)
	}
	return endToEndSweep(in, chk, seconds, log)
}

func endToEndStepped(in inputs, chk *checker, seconds float64, log func(string)) (runResult, error) {
	r := runResult{info: map[string]any{}}
	cfg := in.config()
	servers := float64(cfg.Servers)

	// Warm-up: fills the trace cache and the heap, and is checked like
	// every other repetition.
	warm, err := runStepped(cfg, chk.wantTicks)
	if err == nil {
		err = chk.stepped(warm.out)
	}
	r.record(1, err, log)
	if err != nil {
		return r, err
	}
	// Model error against the paper's Fig. 16 figure, with the
	// round-robin baseline outside the timed region.
	if in.def.policy == vmt.PolicyVMTWA {
		base, err := vmt.Run(in.baselineConfig())
		if err != nil {
			return r, err
		}
		red := (base.PeakCoolingW() - peak(warm.out.Cooling)) / base.PeakCoolingW() * 100
		r.info["peak_reduction_pct"] = red
		r.info["paper_err_pt"] = math.Abs(red - 12.8)
	}

	setup, err := measureSetup(func() (time.Duration, error) {
		t0 := time.Now()
		s, err := vmt.Open(cfg)
		d := time.Since(t0)
		if err == nil {
			s.Close()
		}
		return d, err
	})
	if err != nil {
		return r, err
	}

	var (
		rates, allocs []float64
		tick          tickStats
	)
	b := budget{start: time.Now(), seconds: seconds}
	var last time.Duration
	for reps := 0; b.more(reps, last); reps++ {
		rep, err := runStepped(cfg, chk.wantTicks)
		if err == nil {
			err = chk.stepped(rep.out)
		}
		r.record(1, err, log)
		if err != nil {
			continue
		}
		last = rep.wall
		rates = append(rates, blockRates(rep.ticks, servers)...)
		allocs = append(allocs, float64(rep.alloc)/mb)
		ms := make([]float64, len(rep.ticks))
		for i, d := range rep.ticks {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		tick.add(ms)
	}
	if len(allocs) == 0 {
		return r, fmt.Errorf("no repetition succeeded")
	}
	r.info["reps"] = len(allocs)
	r.info["tick_p99_ms"] = median(tick.p99)
	r.metrics = map[string]float64{
		"setup_s":            setup,
		"server_ticks_per_s": median(rates),
		"tick_p50_ms":        median(tick.p50),
		"tick_p90_ms":        median(tick.p90),
		"alloc_mb":           median(allocs),
		"peak_rss_mb":        peakRSSMB(),
	}
	return r, nil
}

// tickStats holds each repetition's tick-time percentiles. The metrics
// are their medians over repetitions: a repetition that ran through a
// slow spell of the host moves the median less than it would move a
// percentile pooled over all repetitions. p99 is kept for the info line
// only, because on this kind of shared host it follows the host's
// stalls more than the program (see README.md).
type tickStats struct{ p50, p90, p99 []float64 }

func (t *tickStats) add(ms []float64) {
	t.p50 = append(t.p50, quantile(ms, 0.50))
	t.p90 = append(t.p90, quantile(ms, 0.90))
	t.p99 = append(t.p99, quantile(ms, 0.99))
}

// blockTicks is the block length of the stepped throughput: one
// simulated hour.
const blockTicks = 60

// blockRates splits a repetition's tick times into blocks and returns
// each block's server-ticks per second of stepping. The median over
// many blocks is steadier than a mean over the whole run on a host
// whose speed drifts.
func blockRates(ticks []time.Duration, servers float64) []float64 {
	var rates []float64
	for lo := 0; lo < len(ticks); lo += blockTicks {
		hi := min(lo+blockTicks, len(ticks))
		var sum time.Duration
		for _, d := range ticks[lo:hi] {
			sum += d
		}
		rates = append(rates, servers*float64(hi-lo)/sum.Seconds())
	}
	return rates
}

// sweepSetup times the fault study's set-up: spec generation and
// expansion, then opening every run's session (up to each first tick).
func sweepSetup(in inputs, cfgs []vmt.Config) (time.Duration, error) {
	sessions := make([]*vmt.Session, 0, len(cfgs))
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	t0 := time.Now()
	if _, err := in.expand(); err != nil {
		return 0, err
	}
	for _, cfg := range cfgs {
		s, err := vmt.Open(cfg)
		if err != nil {
			return 0, err
		}
		sessions = append(sessions, s)
	}
	return time.Since(t0), nil
}

// sweepResults executes the study once through vmt.RunSpecResults from
// a cold run cache. It returns every run's result, baselines first, and
// the rows the study's peak_reduction reducer computes from them.
func sweepResults(in inputs, progress io.Writer) ([]*vmt.Result, []row, error) {
	spec, err := in.spec()
	if err != nil {
		return nil, nil, err
	}
	vmt.RunCache().Reset()
	sr, err := vmt.RunSpecResults(spec, vmt.BatchOptions{Workers: in.def.batchWorkers, Progress: progress})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]row, len(sr.Points))
	for i, p := range sr.Points {
		base := sr.BaselineFor(i).PeakCoolingW()
		corr, _ := p.Labels["correlation"].(string)
		variant, _ := p.Labels["variant"].(string)
		rows[i] = row{Correlation: corr, Variant: variant, ReductionPct: (base - sr.Results[i].PeakCoolingW()) / base * 100}
	}
	return append(append([]*vmt.Result(nil), sr.Baselines...), sr.Results...), rows, nil
}

func endToEndSweep(in inputs, chk *checker, seconds float64, log func(string)) (runResult, error) {
	r := runResult{info: map[string]any{}}
	ex, err := in.expand()
	if err != nil {
		return r, err
	}
	nRuns := ex.runs()

	// Warm-up, checked like every other repetition. It also yields
	// each run's resolved configuration for the set-up timing.
	var results []*vmt.Result
	err = protect(func() error {
		all, rows, err := sweepResults(in, nil)
		if err != nil {
			return err
		}
		results = all
		return chk.sweep(rows)
	})
	r.record(nRuns, err, log)
	if err != nil {
		return r, err
	}
	cfgs := make([]vmt.Config, len(results))
	var serverTicks float64
	for i, res := range results {
		cfgs[i] = res.Config
		serverTicks += float64(res.Config.Servers * res.CoolingLoadW.Len())
	}
	setup, err := measureSetup(func() (time.Duration, error) { return sweepSetup(in, cfgs) })
	if err != nil {
		return r, err
	}

	var (
		rates, allocs []float64
		tick          tickStats
	)
	b := budget{start: time.Now(), seconds: seconds}
	var last time.Duration
	for reps := 0; b.more(reps, last); reps++ {
		rep, err := runSweep(in)
		if err == nil {
			err = chk.sweep(rep.rows)
		}
		if err == nil && len(rep.runWalls) != nRuns {
			err = fmt.Errorf("%d progress lines, want %d", len(rep.runWalls), nRuns)
		}
		r.record(nRuns, err, log)
		if err != nil {
			continue
		}
		last = rep.wall
		rates = append(rates, serverTicks/rep.wall.Seconds())
		allocs = append(allocs, float64(rep.alloc)/mb)
		// A batch run is not stepped from outside, so its tick time is
		// the run's wall time over its ticks.
		ms := make([]float64, len(rep.runWalls))
		for i, d := range rep.runWalls {
			ms[i] = float64(d) / float64(time.Millisecond) / float64(chk.wantTicks)
		}
		tick.add(ms)
	}
	if len(rates) == 0 {
		return r, fmt.Errorf("no repetition succeeded")
	}
	r.info["reps"] = len(rates)
	r.info["tick_p99_ms"] = median(tick.p99)
	r.metrics = map[string]float64{
		"setup_s":            setup,
		"server_ticks_per_s": median(rates),
		"tick_p50_ms":        median(tick.p50),
		"tick_p90_ms":        median(tick.p90),
		"alloc_mb":           median(allocs),
		"peak_rss_mb":        peakRSSMB(),
	}
	return r, nil
}
