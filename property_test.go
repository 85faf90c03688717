package vmt

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// identicalSeries reports the first bit-level divergence between two
// results, "" when there is none: every runSeries row (recorded in
// both or in neither) and every scalar outcome.
func identicalSeries(a, b *Result) string {
	for _, row := range runSeries {
		x, y := *row.field(a), *row.field(b)
		if (x == nil) != (y == nil) {
			return row.name + ": recorded in one result only"
		}
		if x == nil {
			continue
		}
		if x.Len() != y.Len() {
			return fmt.Sprintf("%s: length %d vs %d", row.name, x.Len(), y.Len())
		}
		for i := range x.Values {
			if math.Float64bits(x.Values[i]) != math.Float64bits(y.Values[i]) {
				return fmt.Sprintf("%s[%d]: %v vs %v", row.name, i, x.Values[i], y.Values[i])
			}
		}
	}
	for _, c := range []struct {
		name string
		x, y uint64
	}{
		{"throttle_minutes", uint64(a.ThrottleMinutes), uint64(b.ThrottleMinutes)},
		{"task_arrivals", a.TaskArrivals, b.TaskArrivals},
		{"task_drops", a.TaskDrops, b.TaskDrops},
		{"fault_crashes", a.FaultCrashes, b.FaultCrashes},
		{"fault_repairs", a.FaultRepairs, b.FaultRepairs},
		{"evacuated_jobs", a.EvacuatedJobs, b.EvacuatedJobs},
		{"lost_jobs", a.LostJobs, b.LostJobs},
		{"domain_trips", a.DomainTrips, b.DomainTrips},
		{"reports_quarantined", a.ReportsQuarantined, b.ReportsQuarantined},
	} {
		if c.x != c.y {
			return fmt.Sprintf("%s: %d vs %d", c.name, c.x, c.y)
		}
	}
	return ""
}

// Physics parallelism must be invisible in the results: any
// PhysicsWorkers value produces bit-identical series, because the
// per-server updates are independent and the reduction runs in fixed
// ID order regardless of which goroutine computed each server.
func TestPhysicsWorkersBitIdenticalProperty(t *testing.T) {
	f := func(peakPct, troughPct, noisePct uint8, seed uint64, wa, stream bool) bool {
		policy := PolicyVMTTA
		if wa {
			policy = PolicyVMTWA
		}
		base := Scenario(9, policy, 22)
		base.Trace = randomTrace(peakPct, troughPct, noisePct, seed)
		base.Step = 2 * time.Minute
		base.JobStream = stream
		base.Seed = seed

		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			cfg := base
			cfg.PhysicsWorkers = workers
			res, err := Run(cfg)
			if err != nil {
				t.Logf("workers=%d: %v", workers, err)
				return false
			}
			if ref == nil {
				ref = res
				continue
			}
			if d := identicalSeries(ref, res); d != "" {
				t.Logf("workers=%d vs 1: %s", workers, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Batch parallelism must be equally invisible: RunMany with any worker
// bound reproduces the sequential results run for run.
func TestRunManyWorkerBoundsBitIdentical(t *testing.T) {
	var cfgs []Config
	for i, policy := range []Policy{PolicyRoundRobin, PolicyVMTTA, PolicyVMTWA, PolicyVMTTA} {
		cfg := Scenario(6, policy, 20+2*float64(i))
		cfg.Trace = randomTrace(uint8(40*i), 20, 3, uint64(i+1))
		cfg.Step = 2 * time.Minute
		cfgs = append(cfgs, cfg)
	}
	ref, err := RunManyN(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 100} {
		got, err := RunManyN(cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range cfgs {
			if d := identicalSeries(ref[i], got[i]); d != "" {
				t.Fatalf("workers=%d, cfg %d: %s", workers, i, d)
			}
		}
	}
}
