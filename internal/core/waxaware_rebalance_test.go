package core

import (
	"testing"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/workload"
)

// fillServer packs count jobs of w onto server id.
func fillServer(t *testing.T, c *cluster.Cluster, id int, w workload.Workload, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if err := c.Server(id).Place(w); err != nil {
			t.Fatal(err)
		}
	}
}

// settle advances the cluster until temperatures stop moving.
func settle(t *testing.T, c *cluster.Cluster, minutes int) {
	t.Helper()
	for i := 0; i < minutes; i++ {
		if _, err := c.Step(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
}

func TestKeepWarmPower(t *testing.T) {
	c := newCluster(t, 4)
	wa, err := NewWaxAware(c, Config{GV: 22})
	if err != nil {
		t.Fatal(err)
	}
	keep := wa.keepWarmPowerW(c.Server(0))
	// (35.7 + 0.5 − 22) × 22.35 ≈ 317 W: enough to hold the server just
	// above the melting point at steady state.
	spec := c.Config().Server
	steady := spec.SteadyAirTempC(keep, 22)
	if steady < 35.7 || steady > 36.7 {
		t.Fatalf("keep-warm steady temp %v should sit just above PMT", steady)
	}
}

// A fully melted, loaded server sheds down to keep-warm power, with the
// shed jobs landing on servers that can still melt wax — and never
// sheds so far that its own wax would refreeze.
func TestRebalanceShedsToKeepWarm(t *testing.T) {
	c := newCluster(t, 6)
	wa, err := NewWaxAware(c, Config{GV: 22, WaxThreshold: 0.98}) // base 4
	if err != nil {
		t.Fatal(err)
	}
	// Melt servers 0 and 1 fully while loaded.
	fillServer(t, c, 0, workload.VideoEncoding, 32)
	fillServer(t, c, 1, workload.VideoEncoding, 32)
	settle(t, c, 10*60)
	if c.Server(0).ReportedMeltFrac() < 0.98 {
		t.Fatalf("server 0 should be melted, got %v", c.Server(0).ReportedMeltFrac())
	}
	wa.Tick(0)
	if wa.HotGroupSize() != 6 { // base 4 + 2 melted
		t.Fatalf("hot group = %d, want 6", wa.HotGroupSize())
	}
	keep := wa.keepWarmPowerW(c.Server(0))
	for _, id := range []int{0, 1} {
		s := c.Server(id)
		if s.PowerW() > keep+15 {
			t.Fatalf("server %d power %v not shed to keep-warm %v", id, s.PowerW(), keep)
		}
		perJob := workload.VideoEncoding.PerCorePowerW() * c.Config().Server.PowerScale
		if s.PowerW() < keep-perJob {
			t.Fatalf("server %d power %v fell below keep-warm %v", id, s.PowerW(), keep)
		}
	}
	// The shed jobs moved to other hot-group servers, none were lost.
	if got := c.JobCount(workload.VideoEncoding); got != 64 {
		t.Fatalf("job count changed during rebalance: %d", got)
	}
	moved := 0
	for i := 2; i < 6; i++ {
		moved += c.Server(i).Jobs(workload.VideoEncoding)
	}
	if moved == 0 {
		t.Fatal("no jobs migrated to melt targets")
	}
}

// The hot-for-cold swap: when melt targets are full of cold jobs, the
// rebalancer moves cold work onto melted servers to clear room.
func TestRebalanceSwapsColdForHot(t *testing.T) {
	c := newCluster(t, 4)
	wa, err := NewWaxAware(c, Config{GV: 22, WaxThreshold: 0.98}) // base 2
	if err != nil {
		t.Fatal(err)
	}
	// Servers 0,1: hot and melted. Servers 2,3: stuffed with cold work.
	fillServer(t, c, 0, workload.VideoEncoding, 32)
	fillServer(t, c, 1, workload.VideoEncoding, 32)
	fillServer(t, c, 2, workload.DataCaching, 32)
	fillServer(t, c, 3, workload.DataCaching, 32)
	settle(t, c, 10*60)
	wa.Tick(0)
	if wa.HotGroupSize() != 4 {
		t.Fatalf("hot group = %d, want 4", wa.HotGroupSize())
	}
	// Extension servers should now carry hot jobs despite having been
	// full: cold jobs moved to the melted servers' freed cores.
	hotOnExt := c.Server(2).Jobs(workload.VideoEncoding) + c.Server(3).Jobs(workload.VideoEncoding)
	if hotOnExt == 0 {
		t.Fatal("swap did not move hot work onto extension servers")
	}
	coldOnMelted := c.Server(0).Jobs(workload.DataCaching) + c.Server(1).Jobs(workload.DataCaching)
	if coldOnMelted == 0 {
		t.Fatal("swap did not move cold work onto melted servers")
	}
	// Totals preserved.
	if c.JobCount(workload.VideoEncoding) != 64 || c.JobCount(workload.DataCaching) != 64 {
		t.Fatal("swap lost jobs")
	}
	if c.BusyCores() != 128 {
		t.Fatalf("busy cores = %d, want 128", c.BusyCores())
	}
}

// Repeated ticks on a settled cluster converge: after the handover the
// rebalancer stops moving jobs instead of thrashing.
func TestRebalanceConverges(t *testing.T) {
	c := newCluster(t, 4)
	wa, err := NewWaxAware(c, Config{GV: 22, WaxThreshold: 0.98})
	if err != nil {
		t.Fatal(err)
	}
	fillServer(t, c, 0, workload.VideoEncoding, 32)
	fillServer(t, c, 1, workload.VideoEncoding, 32)
	fillServer(t, c, 2, workload.DataCaching, 20)
	settle(t, c, 10*60)
	// Let the handover complete across several ticks.
	for i := 0; i < 30; i++ {
		wa.Tick(0)
		settle(t, c, 1)
	}
	snapshot := func() []int {
		var out []int
		for i := 0; i < c.Len(); i++ {
			out = append(out, c.Server(i).BusyCores())
		}
		return out
	}
	before := snapshot()
	wa.Tick(0)
	after := snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rebalance still thrashing at server %d: %v -> %v", i, before, after)
		}
	}
}

// The rebalancer does nothing when no server is melted.
func TestRebalanceNoopWhenUnmelted(t *testing.T) {
	c := newCluster(t, 4)
	wa, err := NewWaxAware(c, Config{GV: 22, WaxThreshold: 0.98})
	if err != nil {
		t.Fatal(err)
	}
	fillServer(t, c, 0, workload.WebSearch, 10)
	fillServer(t, c, 2, workload.DataCaching, 10)
	before := []int{c.Server(0).BusyCores(), c.Server(1).BusyCores(),
		c.Server(2).BusyCores(), c.Server(3).BusyCores()}
	wa.Tick(0)
	after := []int{c.Server(0).BusyCores(), c.Server(1).BusyCores(),
		c.Server(2).BusyCores(), c.Server(3).BusyCores()}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("unmelted cluster should not rebalance: %v -> %v", before, after)
		}
	}
}

func TestLargestJob(t *testing.T) {
	c := newCluster(t, 1)
	wa, err := NewWaxAware(c, Config{GV: 22})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Server(0)
	if _, ok := wa.largestJob(s, workload.Hot); ok {
		t.Fatal("empty server should have no largest job")
	}
	fillServer(t, c, 0, workload.WebSearch, 3)
	fillServer(t, c, 0, workload.Clustering, 5)
	fillServer(t, c, 0, workload.DataCaching, 7)
	w, ok := wa.largestJob(s, workload.Hot)
	if !ok || w.Name != "Clustering" {
		t.Fatalf("largest hot job = %v, want Clustering", w.Name)
	}
	cw, ok := wa.largestJob(s, workload.Cold)
	if !ok || cw.Name != "DataCaching" {
		t.Fatalf("largest cold job = %v, want DataCaching", cw.Name)
	}
}

// meltTarget concentrates within the extension region: the first
// extension server in ID order gets filled before the next.
func TestMeltTargetFillFirst(t *testing.T) {
	c := newCluster(t, 6)
	wa, err := NewWaxAware(c, Config{GV: 22, WaxThreshold: 0.98}) // base 4
	if err != nil {
		t.Fatal(err)
	}
	wa.g.hotSize = 6 // simulate an extension without melting
	// Base group saturated so the even-spread branch has no candidates.
	for i := 0; i < 4; i++ {
		fillServer(t, c, i, workload.VideoEncoding, 32)
	}
	dst := wa.meltTarget(workload.WebSearch)
	if dst == nil || dst.ID() != 4 {
		t.Fatalf("fill-first target = %v, want server 4", dst)
	}
	fillServer(t, c, 4, workload.WebSearch, 32)
	dst = wa.meltTarget(workload.WebSearch)
	if dst == nil || dst.ID() != 5 {
		t.Fatalf("next fill target = %v, want server 5", dst)
	}
}
