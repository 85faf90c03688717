package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"vmt/internal/trace"
)

// smokeHorizon shortens every run of the smoke tests.
const smokeHorizon = 120 * time.Minute

func TestSeedChangesInputs(t *testing.T) {
	a, err := trace.Generate(paperTrace(1802), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.Generate(paperTrace(1803), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if digest(a.Values()) == digest(b.Values()) {
		t.Error("stepped workloads: seeds 1802 and 1803 generate the same trace")
	}

	def, err := lookupWorkload("fault-sweep")
	if err != nil {
		t.Fatal(err)
	}
	encode := func(seed uint64) []byte {
		ex, err := inputs{def: def, seed: seed}.expand()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode([]any{ex.points, ex.baselines}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if bytes.Equal(encode(1), encode(2)) {
		t.Error("fault-sweep: seeds 1 and 2 expand to the same runs")
	}
	if !bytes.Equal(encode(2), encode(2)) {
		t.Error("fault-sweep: one seed expands to different runs")
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkPrinted fails unless every printed metric is listed, with its
// unit, and every listed metric is printed.
func checkPrinted(t *testing.T, what string, printed map[string]metric, listed []struct{ Name, Unit string }) {
	t.Helper()
	want := map[string]string{}
	for _, m := range listed {
		want[m.Name] = m.Unit
	}
	for name, m := range printed {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q breaks the [A-Za-z0-9_.-] rule", what, name)
		}
		unit, ok := want[name]
		if !ok {
			t.Errorf("%s: printed metric %q is not in BENCHMARK.json", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s: metric %q printed in %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	if len(printed) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", what, len(printed), len(want))
	}
}

// TestSmoke runs every workload untraced and traced over a short
// horizon: each run must pass its output check (and the traced replay
// its bit-identity check), and print exactly the metrics
// BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	bench := loadBenchmarkFile(t)
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			in := inputs{def: def, seed: def.defaultSeed + 7, horizon: smokeHorizon}
			log := func(msg string) { t.Log(msg) }
			for mode, run := range []func(inputs, float64, func(string)) (runResult, error){endToEnd, tracedRun} {
				r, err := run(in, 0, log)
				if err != nil {
					t.Fatalf("trace %d: %v", mode, err)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("trace %d: %d of %d runs failed", mode, r.failed, r.attempted)
				}
				units, listed := endToEndUnits, bench.EndToEnd
				if mode == 1 {
					units, listed = layerUnits, bench.PerLayer
				}
				res, err := buildResult(r, units)
				if err != nil {
					t.Fatalf("trace %d: %v", mode, err)
				}
				checkPrinted(t, def.name, res.Metrics, listed)
			}
		})
	}
}

// TestCheckerRejects shows that a wrong value or a disagreeing
// repetition fails the output check.
func TestCheckerRejects(t *testing.T) {
	def, err := lookupWorkload("paper-wa-1k")
	if err != nil {
		t.Fatal(err)
	}
	flat := output{Cooling: make([]float64, 2880)}
	chk, err := newChecker(inputs{def: def, seed: def.defaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.stepped(flat); err == nil {
		t.Error("a flat cooling series passed the default-seed check")
	}
	chk, err = newChecker(inputs{def: def, seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.stepped(flat); err != nil {
		t.Fatalf("first repetition at a non-default seed: %v", err)
	}
	other := output{Cooling: make([]float64, 2880)}
	other.Cooling[100] = 1
	if err := chk.stepped(other); err == nil {
		t.Error("a disagreeing repetition passed")
	}
	throttled := output{Cooling: make([]float64, 2880), Throttle: 1}
	if err := chk.stepped(throttled); err == nil {
		t.Error("a throttling run passed")
	}
}

// TestExpectedIsCurrent recomputes expected.json at the default seeds.
func TestExpectedIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full length")
	}
	var buf bytes.Buffer
	if err := writeExpected(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), expectedJSON) {
		t.Errorf("expected.json is stale; the program now gives:\n%s", buf.Bytes())
	}
}
