// Command vmtbench is the repository's benchmark: it runs one named
// workload of the VMT simulator, checks every run's output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced replay) as the last line of standard output. See README.md.
//
//	vmtbench -workload paper-wa-1k -seed 1802 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark prints; BENCHMARK.json lists the
// same names.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"server_ticks_per_s": "1/s",
	"tick_p50_ms":        "ms",
	"tick_p90_ms":        "ms",
	"alloc_mb":           "MB",
	"peak_rss_mb":        "MB",
}

var layerUnits = map[string]string{
	"cluster.step_s":                  "s",
	"cluster.step_ns_per_server_tick": "ns",
	"cluster.settled_frac":            "frac",
	"cluster.share":                   "frac",
	"core.place_calls":                "count",
	"core.remove_calls":               "count",
	"core.tick_calls":                 "count",
	"core.place_ns":                   "ns",
	"core.remove_ns":                  "ns",
	"core.tick_ns":                    "ns",
	"core.place_ns_per_server":        "ns",
	"core.share":                      "frac",
	"sched.reconcile_self_s":          "s",
	"sched.self_ns_per_arrival":       "ns",
	"sched.arrivals":                  "count",
	"sched.drops":                     "count",
	"sched.shed":                      "count",
	"sched.share":                     "frac",
	"fault.tick_s":                    "s",
	"fault.crashes":                   "count",
	"fault.domain_trips":              "count",
	"fault.evacuated":                 "count",
	"fault.lost":                      "count",
	"sched.guard_s":                   "s",
	"sched.quarantined":               "count",
	"experiment.expand_s":             "s",
	"vmt.batch_efficiency":            "frac",
	"vmt.glue_frac":                   "frac",
	"vmt.trace_overhead_frac":         "frac",
}

// buildResult attaches units and checks that exactly the expected
// metrics were measured, each a finite number.
func buildResult(r runResult, units map[string]string) (result, error) {
	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range units {
		v, ok := r.metrics[name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", name, v)
		}
		out.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if len(r.metrics) != len(units) {
		return out, fmt.Errorf("measured %d metrics, want %d", len(r.metrics), len(units))
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("nothing was attempted")
	}
	return out, nil
}

func main() {
	name := flag.String("workload", "", "workload name: paper-wa-1k, rr-16k or fault-sweep")
	seed := flag.Uint64("seed", 0, "input seed (default: the workload's own, which reproduces expected.json)")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced replay")
	printExpected := flag.Bool("print-expected", false, "print expected.json for the default seeds and exit")
	flag.Parse()

	if *printExpected {
		if err := writeExpected(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	def, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	in := inputs{def: def, seed: def.defaultSeed}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			in.seed = *seed
		}
	})
	log := func(msg string) { fmt.Fprintf(os.Stderr, "vmtbench: %s: %s\n", def.name, msg) }

	start := time.Now()
	var (
		r     runResult
		units = endToEndUnits
	)
	if *traceMode == 1 {
		r, err = tracedRun(in, *seconds, log)
		units = layerUnits
	} else {
		r, err = endToEnd(in, *seconds, log)
	}
	if err != nil {
		fatal(err)
	}
	res, err := buildResult(r, units)
	if err != nil {
		fatal(err)
	}
	r.info["workload"] = def.name
	r.info["seed"] = in.seed
	r.info["trace"] = *traceMode
	r.info["wall_s"] = time.Since(start).Seconds()
	r.info["host"] = hostInfo()
	emit(map[string]any{"info": r.info})
	emit(res)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmtbench:", err)
	os.Exit(1)
}
