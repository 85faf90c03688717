package core

import (
	"testing"

	"vmt/internal/bitset"
	"vmt/internal/telemetry"
	"vmt/internal/workload"
)

// meltLie is a report filter that claims a fixed melt fraction.
type meltLie struct{ frac float64 }

func (l *meltLie) FilterUtilization(u float64) float64 { return u }
func (l *meltLie) FilterMeltFrac(float64) float64      { return l.frac }

// sched_threshold_trips counts servers crossing the wax threshold, so
// a tick where one server melts while another drops back is one trip,
// not the zero net change in the melted count.
func TestThresholdTripsCountCrossingsNotNetChange(t *testing.T) {
	c := newCluster(t, 4)
	reg := telemetry.NewRegistry()
	wa, err := NewWaxAware(c, Config{GV: 22, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &meltLie{frac: 1}, &meltLie{frac: 0}
	c.Server(0).SetReportFilter(a)
	c.Server(1).SetReportFilter(b)
	trips := reg.Counter("sched_threshold_trips")
	wa.Tick(0)
	if got := trips.Value(); got != 1 {
		t.Fatalf("first tick: %d trips, want 1", got)
	}
	a.frac, b.frac = 0, 1
	wa.Tick(0)
	if got := trips.Value(); got != 2 {
		t.Fatalf("swap tick: %d trips, want 2 (server 1 crossed while server 0 dropped back)", got)
	}
	wa.Tick(0)
	if got := trips.Value(); got != 2 {
		t.Fatalf("steady tick: %d trips, want 2", got)
	}
}

// The wax classes follow the cluster's report epoch between Ticks: a
// report rewrite announced with ReportsChanged is visible to the next
// placement without waiting for the scheduling period.
func TestWaxClassesFollowReportEpoch(t *testing.T) {
	c := newCluster(t, 4)
	wa, err := NewWaxAware(c, Config{GV: 22})
	if err != nil {
		t.Fatal(err)
	}
	lie := &meltLie{frac: 0}
	c.Server(2).SetReportFilter(lie)
	wa.Tick(0)
	if bitset.Has(wa.meltedSet, 2) {
		t.Fatal("server 2 melted before its report said so")
	}
	lie.frac = 1
	c.ReportsChanged()
	if _, err := wa.Place(workload.WebSearch); err != nil {
		t.Fatal(err)
	}
	if !bitset.Has(wa.meltedSet, 2) {
		t.Fatal("placement read a wax class from before the report epoch moved")
	}
}
