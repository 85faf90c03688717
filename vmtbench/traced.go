package main

import (
	"fmt"
	"time"

	"vmt"
)

// The traced run (--trace 1) gives the per-layer metrics. It runs the
// reference through the program's own entry points, then alternates a
// bare replay and a traced replay of every reference configuration
// until the time budget is spent. Each replay must be bit-identical to
// its reference; the bare replay's wall time is the base of the tracing
// overhead.

// tracedTotals accumulates traced replay passes.
type tracedTotals struct {
	clock       spanClock
	passes      int
	tracedWall  []float64 // seconds per pass
	bareWall    []float64
	serverTicks uint64
	settled     uint64
	placements  uint64
	shed        uint64
	out         output // summed counters only
}

// replayAll replays every reference configuration and compares each
// output with its reference. With a non-nil clock the pass is traced.
func replayAll(refs []*vmt.Result, clock *spanClock, tot *tracedTotals) (time.Duration, error) {
	t0 := time.Now()
	var outs []output
	var sts []replayStats
	for _, ref := range refs {
		var (
			out output
			st  replayStats
		)
		err := protect(func() (err error) {
			out, st, err = replay(ref.Config, clock)
			return err
		})
		if err != nil {
			return 0, err
		}
		outs = append(outs, out)
		sts = append(sts, st)
	}
	wall := time.Since(t0)
	for i, ref := range refs {
		if d := sameOutput(outputOf(ref), outs[i]); d != "" {
			return 0, fmt.Errorf("replay of run %d differs from vmt.Run: %s", i, d)
		}
	}
	if clock != nil {
		for i, st := range sts {
			tot.serverTicks += st.serverTicks
			tot.settled += st.settled
			tot.placements += st.placements
			tot.shed += st.shed
			o := outs[i]
			tot.out.Drops += o.Drops
			tot.out.Crashes += o.Crashes
			tot.out.DomainTrips += o.DomainTrips
			tot.out.Evacuated += o.Evacuated
			tot.out.Lost += o.Lost
			tot.out.Quarantined += o.Quarantined
		}
	}
	return wall, nil
}

// tracedRun is the traced run of a workload.
func tracedRun(in inputs, seconds float64, log func(string)) (runResult, error) {
	r := runResult{info: map[string]any{}}
	chk, err := newChecker(in)
	if err != nil {
		return r, err
	}
	var (
		refs     []*vmt.Result
		expandS  float64
		batchEff = 1.0 // a single session is a batch of one run on one worker
	)
	if in.def.stepped {
		var ref *vmt.Result
		err := protect(func() (err error) {
			ref, err = vmt.Run(in.config())
			return err
		})
		if err == nil {
			err = chk.stepped(outputOf(ref))
		}
		r.record(1, err, log)
		if err != nil {
			return r, err
		}
		refs = []*vmt.Result{ref}
	} else {
		ex, err := in.expand()
		if err != nil {
			return r, err
		}
		if expandS, err = measureSetup(func() (time.Duration, error) {
			t0 := time.Now()
			_, err := in.expand()
			return time.Since(t0), err
		}); err != nil {
			return r, err
		}
		var (
			prog progressLog
			all  []*vmt.Result
			rows []row
		)
		t0 := time.Now()
		err = protect(func() (err error) {
			all, rows, err = sweepResults(in, &prog)
			return err
		})
		batchWall := time.Since(t0)
		if err == nil {
			err = chk.sweep(rows)
		}
		r.record(ex.runs(), err, log)
		if err != nil {
			return r, err
		}
		walls, err := prog.runWalls()
		if err != nil {
			return r, err
		}
		var sum time.Duration
		for _, w := range walls {
			sum += w
		}
		batchEff = sum.Seconds() / (float64(in.def.batchWorkers) * batchWall.Seconds())
		// The reference is vmt.Run of each configuration the batch
		// resolved.
		for _, res := range all {
			var ref *vmt.Result
			err := protect(func() (err error) {
				ref, err = vmt.Run(res.Config)
				return err
			})
			if err == nil {
				if d := sameOutput(outputOf(res), outputOf(ref)); d != "" {
					err = fmt.Errorf("vmt.Run differs from the batch runner: %s", d)
				}
			}
			r.record(1, err, log)
			if err != nil {
				return r, err
			}
			refs = append(refs, ref)
		}
	}

	var tot tracedTotals
	b := budget{start: time.Now(), seconds: seconds}
	var last time.Duration
	for reps := 0; b.more(reps, last); reps++ {
		bare, err := replayAll(refs, nil, &tot)
		r.record(len(refs), err, log)
		if err != nil {
			continue
		}
		traced, err := replayAll(refs, &tot.clock, &tot)
		r.record(len(refs), err, log)
		if err != nil {
			continue
		}
		last = bare + traced
		tot.passes++
		tot.bareWall = append(tot.bareWall, bare.Seconds())
		tot.tracedWall = append(tot.tracedWall, traced.Seconds())
	}
	if tot.passes == 0 {
		return r, fmt.Errorf("no replay pass succeeded")
	}
	r.info["passes"] = tot.passes
	r.metrics = layerMetrics(&tot, refs[0].Config.Servers, expandS, batchEff)
	return r, nil
}

// layerMetrics reduces the traced passes to the per-layer metrics.
// Counts and times are per pass; shares are of the traced wall time.
func layerMetrics(tot *tracedTotals, servers int, expandS, batchEff float64) map[string]float64 {
	c := &tot.clock
	passes := float64(tot.passes)
	var wall float64
	for _, w := range tot.tracedWall {
		wall += w
	}
	perPass := func(x uint64) float64 { return float64(x) / passes }
	secs := func(d time.Duration) float64 { return d.Seconds() / passes }
	share := func(d time.Duration) float64 { return d.Seconds() / wall }
	ratio := func(num float64, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return num / float64(den)
	}
	nsPerCall := func(kind int) float64 {
		return ratio(float64(c.coreTime[kind].Nanoseconds()), c.coreCalls[kind])
	}
	var coreTotal time.Duration
	for _, d := range c.coreTime {
		coreTotal += d
	}
	arrivals := tot.placements + tot.out.Drops
	accounted := c.self(layerCluster) + coreTotal + c.self(layerSched) + c.self(layerFault) + c.self(layerGuard)

	return map[string]float64{
		"cluster.step_s":                  secs(c.total[layerCluster]),
		"cluster.step_ns_per_server_tick": ratio(float64(c.total[layerCluster].Nanoseconds()), tot.serverTicks),
		"cluster.settled_frac":            ratio(float64(tot.settled), tot.serverTicks),
		"cluster.share":                   share(c.self(layerCluster)),

		"core.place_calls":          perPass(c.coreCalls[corePlace]),
		"core.remove_calls":         perPass(c.coreCalls[coreRemove]),
		"core.tick_calls":           perPass(c.coreCalls[coreTick]),
		"core.place_ns":             nsPerCall(corePlace),
		"core.remove_ns":            nsPerCall(coreRemove),
		"core.tick_ns":              nsPerCall(coreTick),
		"core.place_ns_per_server":  nsPerCall(corePlace) / float64(servers),
		"core.share":                share(coreTotal),
		"sched.reconcile_self_s":    secs(c.self(layerSched)),
		"sched.self_ns_per_arrival": ratio(float64(c.self(layerSched).Nanoseconds()), arrivals),
		"sched.arrivals":            perPass(arrivals),
		"sched.drops":               perPass(tot.out.Drops),
		"sched.shed":                perPass(tot.shed),
		"sched.share":               share(c.self(layerSched)),

		"fault.tick_s":       secs(c.self(layerFault)),
		"fault.crashes":      perPass(tot.out.Crashes),
		"fault.domain_trips": perPass(tot.out.DomainTrips),
		"fault.evacuated":    perPass(tot.out.Evacuated),
		"fault.lost":         perPass(tot.out.Lost),
		"sched.guard_s":      secs(c.self(layerGuard)),
		"sched.quarantined":  perPass(tot.out.Quarantined),

		"experiment.expand_s":     expandS,
		"vmt.batch_efficiency":    batchEff,
		"vmt.glue_frac":           1 - share(accounted),
		"vmt.trace_overhead_frac": median(tot.tracedWall)/median(tot.bareWall) - 1,
	}
}
