package vmt

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"vmt/internal/stats"
	"vmt/internal/trace"
)

func TestResultJSONRoundTrip(t *testing.T) {
	cfg := Scenario(4, PolicyVMTTA, 22)
	cfg.Trace = smallTrace()
	cfg.RecordGrids = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Config.Policy != PolicyVMTTA || back.Config.Servers != 4 || back.Config.GV != 22 {
		t.Fatalf("config fields lost: %+v", back.Config)
	}
	// Every *stats.Series field of Result round-trips bit for bit.
	rv, bv := reflect.ValueOf(res).Elem(), reflect.ValueOf(back).Elem()
	for i := 0; i < rv.NumField(); i++ {
		x, ok := rv.Field(i).Interface().(*stats.Series)
		if !ok {
			continue
		}
		name := rv.Type().Field(i).Name
		y := bv.Field(i).Interface().(*stats.Series)
		if x == nil || y == nil {
			t.Fatalf("%s: present before the round trip %v, after %v", name, x != nil, y != nil)
		}
		if x.Len() != y.Len() {
			t.Fatalf("%s: %d samples before the round trip, %d after", name, x.Len(), y.Len())
		}
		for k := range x.Values {
			if math.Float64bits(x.Values[k]) != math.Float64bits(y.Values[k]) {
				t.Fatalf("%s[%d] changed: %v -> %v", name, k, x.Values[k], y.Values[k])
			}
		}
	}
	if back.PeakCoolingW() != res.PeakCoolingW() {
		t.Fatal("peak changed across round trip")
	}
	if len(back.AirTempGrid) != len(res.AirTempGrid) {
		t.Fatal("grids lost")
	}
}

func TestResultJSONOmitsAbsentSeries(t *testing.T) {
	cfg := BaselineScenario(3)
	cfg.Trace = smallTrace()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "hot_group_temp_c") {
		t.Fatal("baseline export should omit hot-group series")
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.HotGroupTempC != nil {
		t.Fatal("absent series should stay nil")
	}
}

func TestReadResultJSONErrors(t *testing.T) {
	if _, err := ReadResultJSON(strings.NewReader("{garbage")); err == nil {
		t.Fatal("bad json should fail")
	}
	if _, err := ReadResultJSON(strings.NewReader(`{"step_seconds":0}`)); err == nil {
		t.Fatal("zero step should fail")
	}
	if _, err := ReadResultJSON(strings.NewReader(`{"step_seconds":60,"series":{}}`)); err == nil {
		t.Fatal("missing cooling series should fail")
	}
}

func TestCustomTraceDrivesRun(t *testing.T) {
	// A flat 50% trace: cooling load should settle near the implied
	// steady state and stay flat.
	var lines strings.Builder
	for i := 0; i < 12*60; i++ {
		lines.WriteString("0.5\n")
	}
	tr, err := trace.FromReader(strings.NewReader(lines.String()), 60_000_000_000) // 1 min
	if err != nil {
		t.Fatal(err)
	}
	cfg := BaselineScenario(4)
	cfg.CustomTrace = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := res.CoolingLoadW.Len()
	if n != 12*60-1 {
		t.Fatalf("samples = %d", n)
	}
	// After warm-up, the load is flat.
	late := res.CoolingLoadW.Values[n-1]
	mid := res.CoolingLoadW.Values[n-120]
	if diff := late - mid; diff > 10 || diff < -10 {
		t.Fatalf("flat trace should give flat load: %v vs %v", mid, late)
	}
	// Custom trace too short is rejected.
	short, err := trace.FromReader(strings.NewReader("0.5\n0.5\n"), 60_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	_ = short
	bad := BaselineScenario(2)
	bad.CustomTrace = nil
	bad.Trace.Days = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("bad spec without custom trace should fail")
	}
}
