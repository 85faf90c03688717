package fault

import (
	"fmt"
	"math"
	"sort"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/pcm"
	"vmt/internal/reliability"
	"vmt/internal/stats"
	"vmt/internal/telemetry"
	"vmt/internal/topology"
)

// Host is the scheduler-side contract the injector needs on a crash:
// move the failed server's jobs elsewhere through the normal placement
// logic. moved counts re-placed jobs, lost counts jobs dropped because
// no capacity remained. Both managers in internal/sched implement it.
type Host interface {
	Evacuate(s *cluster.Server) (moved, lost int, err error)
}

// Injector applies a validated Plan to a cluster, one Tick per
// scheduler step. It runs on the session's sequential fault band
// (between physics and scheduling), so all cluster mutation and all
// stochastic crash draws happen in server-ID order on one goroutine;
// per-server sensor RNGs keep the parallel physics phase
// deterministic for any PhysicsWorkers setting.
type Injector struct {
	plan Plan
	c    *cluster.Cluster
	host Host

	crashes   []Crash // sorted by (AtMin, Server)
	nextCrash int

	rng   *stats.RNG // stochastic per-server crash draws only
	model reliability.Model

	down     []bool
	repairAt []time.Duration // 0 = no repair pending
	sensors  []*sensorState

	// Correlated failure domains. topo is nil unless the plan carries a
	// topology; domains is the scheduled trip list sorted by fire time;
	// domainRNG drives stochastic domain draws on its own stream so
	// adding a domain process never perturbs the per-server draws.
	topo            *topology.Topology
	domains         []DomainFault // sorted by (AtMin, Kind, Index)
	nextDomain      int
	domainRNG       *stats.RNG
	stochDomainDown []time.Duration // per-domain busy-until for the stochastic kind
	baseInlet       []float64       // pre-fault inlet temps, derate baseline
	derates         []activeDerate

	// Byzantine reporters: byz[id] is non-nil for servers with lying
	// report channels; byzServers lists them in ID order for the
	// per-tick refresh.
	byz        []*byzState
	byzServers []int

	injected, repaired, evacJobs, lostJobs, domainTrips uint64

	crashCount, repairCount, evacCount, lostCount, migrationsCount, domainTripCount *telemetry.Counter
}

// activeDerate is one in-effect cooling derate over the contiguous
// server range [lo, hi): every member's inlet is raised by deltaC
// until endAt (0 = never repairs). Overlapping derates stack.
type activeDerate struct {
	lo, hi int
	deltaC float64
	endAt  time.Duration
}

// NewInjector wires a plan onto a cluster. The plan must already be
// validated for the cluster size. Sensor interposers are installed on
// every server (a crashed server's estimator reads nothing while it
// is down, whether or not it has explicit sensor faults).
func NewInjector(p *Plan, c *cluster.Cluster, host Host, reg *telemetry.Registry) *Injector {
	n := c.Len()
	inj := &Injector{
		plan:            *p,
		c:               c,
		host:            host,
		crashes:         append([]Crash(nil), p.Crashes...),
		rng:             stats.NewRNG(p.Seed ^ 0x8f1bbcdcbfa53e0b),
		model:           reliability.PaperModel(),
		down:            make([]bool, n),
		repairAt:        make([]time.Duration, n),
		sensors:         make([]*sensorState, n),
		crashCount:      reg.Counter("fault_injected_crashes"),
		repairCount:     reg.Counter("fault_injected_repairs"),
		evacCount:       reg.Counter("fault_evacuated_jobs"),
		lostCount:       reg.Counter("fault_lost_jobs"),
		migrationsCount: reg.Counter("sched_migrations"),
		domainTripCount: reg.Counter("fault_domain_trips"),
	}
	if st := p.Stochastic; st != nil && st.MTBFHours > 0 {
		inj.model.MTBFHours = st.MTBFHours
	}
	sort.Slice(inj.crashes, func(i, j int) bool {
		a, b := inj.crashes[i], inj.crashes[j]
		if a.AtMin != b.AtMin { //vmtlint:allow floateq exact schedule times tie-break on server ID; equal-bit times sort identically on every run
			return a.AtMin < b.AtMin
		}
		return a.Server < b.Server
	})
	for i := 0; i < n; i++ {
		ss := &sensorState{rng: stats.NewRNG(sensorSeed(p.Seed, i))}
		for _, f := range p.Sensors {
			if f.Server == i {
				ss.faults = append(ss.faults, f)
			}
		}
		sort.Slice(ss.faults, func(a, b int) bool { return ss.faults[a].StartMin < ss.faults[b].StartMin })
		inj.sensors[i] = ss
		c.Server(i).Estimator().SetSensor(ss)
	}
	if p.Topology != nil {
		topo, err := topology.Build(*p.Topology, n)
		if err != nil {
			// The plan was validated for this cluster size (ValidateFor
			// builds the same topology); reaching here is a bug, not an
			// input error.
			panic(err)
		}
		inj.topo = topo
		inj.domains = append([]DomainFault(nil), p.Domains...)
		sort.Slice(inj.domains, func(i, j int) bool {
			a, b := inj.domains[i], inj.domains[j]
			if a.AtMin != b.AtMin { //vmtlint:allow floateq exact schedule times tie-break on (kind, index); equal-bit times sort identically on every run
				return a.AtMin < b.AtMin
			}
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			return a.Index < b.Index
		})
		inj.baseInlet = make([]float64, n)
		for i := 0; i < n; i++ {
			inj.baseInlet[i] = c.Server(i).InletTempC()
		}
		if sd := p.StochasticDomains; sd != nil {
			count, err := topo.DomainCount(sd.Kind)
			if err != nil {
				panic(err) // kind validated in Plan.Validate
			}
			inj.domainRNG = stats.NewRNG(p.Seed ^ 0x71c9d1eadf5a6c8f)
			inj.stochDomainDown = make([]time.Duration, count)
		}
	}
	if len(p.Byzantine) > 0 {
		inj.byz = make([]*byzState, n)
		for _, b := range p.Byzantine {
			bz := inj.byz[b.Server]
			if bz == nil {
				bz = &byzState{rng: stats.NewRNG(byzSeed(p.Seed, b.Server))}
				inj.byz[b.Server] = bz
				inj.byzServers = append(inj.byzServers, b.Server)
			}
			bz.faults = append(bz.faults, b)
		}
		sort.Ints(inj.byzServers)
		for _, id := range inj.byzServers {
			bz := inj.byz[id]
			sort.Slice(bz.faults, func(a, b int) bool {
				fa, fb := bz.faults[a], bz.faults[b]
				if fa.StartMin != fb.StartMin { //vmtlint:allow floateq exact schedule times tie-break on kind; equal-bit times sort identically on every run
					return fa.StartMin < fb.StartMin
				}
				return fa.Kind < fb.Kind
			})
			c.Server(id).SetReportFilter(bz)
		}
	}
	return inj
}

// Tick processes faults due at sim time now, covering the step
// interval (now-dt, now]: derate expiries and repairs first, then
// scheduled per-server crashes, then scheduled domain trips, then
// stochastic draws (per-server, then per-domain) in ID order, and
// finally the per-tick refresh of Byzantine report lies. Everything
// here runs on the sequential fault band, so cluster mutation order —
// and therefore every downstream scheduler decision — is identical for
// any PhysicsWorkers setting.
func (inj *Injector) Tick(now, dt time.Duration) error {
	inj.expireDerates(now)
	for id := range inj.repairAt {
		if inj.down[id] && inj.repairAt[id] > 0 && inj.repairAt[id] <= now {
			inj.repair(id)
		}
	}
	for inj.nextCrash < len(inj.crashes) && durMin(inj.crashes[inj.nextCrash].AtMin) <= now {
		c := inj.crashes[inj.nextCrash]
		inj.nextCrash++
		if inj.down[c.Server] {
			continue // already down via a stochastic crash; scheduled repair still governed by that crash
		}
		if err := inj.crash(c.Server, c.RepairAfterMin, now); err != nil {
			return err
		}
	}
	for inj.nextDomain < len(inj.domains) && durMin(inj.domains[inj.nextDomain].AtMin) <= now {
		d := inj.domains[inj.nextDomain]
		inj.nextDomain++
		if err := inj.tripDomain(d.Kind, d.Index, d.EffectiveMode(), d.RepairAfterMin, d.DerateInletDeltaC, now); err != nil {
			return err
		}
	}
	if st := inj.plan.Stochastic; st != nil {
		dtHours := dt.Hours()
		for id := 0; id < inj.c.Len(); id++ {
			if inj.down[id] {
				continue
			}
			rate := st.RatePerHour
			if st.Arrhenius {
				rate = inj.model.FailureRatePerHour(inj.c.Server(id).AirTempC())
			}
			p := -math.Expm1(-rate * dtHours)
			if inj.rng.Float64() < p {
				if err := inj.crash(id, st.RepairAfterMin, now); err != nil {
					return err
				}
			}
		}
	}
	if sd := inj.plan.StochasticDomains; sd != nil && inj.topo != nil {
		p := -math.Expm1(-sd.RatePerHour * dt.Hours())
		for idx := range inj.stochDomainDown {
			if inj.stochDomainDown[idx] > now {
				continue // domain still in its correlated repair window
			}
			if inj.domainRNG.Float64() >= p {
				continue
			}
			if err := inj.tripDomain(sd.Kind, idx, sd.EffectiveMode(), sd.RepairAfterMin, sd.DerateInletDeltaC, now); err != nil {
				return err
			}
			if sd.RepairAfterMin > 0 {
				inj.stochDomainDown[idx] = now + durMin(sd.RepairAfterMin)
			} else {
				inj.stochDomainDown[idx] = time.Duration(math.MaxInt64)
			}
		}
	}
	for _, id := range inj.byzServers {
		inj.byz[id].refresh(now)
	}
	return nil
}

// tripDomain fires one correlated failure over the domain's contiguous
// server range: crash mode downs every alive member atomically with a
// shared repair window; derate mode raises every member's inlet
// temperature until the derate expires.
func (inj *Injector) tripDomain(kind string, index int, mode string, repairAfterMin, derateDeltaC float64, now time.Duration) error {
	lo, hi, err := inj.topo.DomainRange(kind, index)
	if err != nil {
		return fmt.Errorf("fault: domain trip: %w", err)
	}
	inj.domainTrips++
	inj.domainTripCount.Inc()
	if mode == ModeDerate {
		end := time.Duration(0)
		if repairAfterMin > 0 {
			end = now + durMin(repairAfterMin)
		}
		inj.derates = append(inj.derates, activeDerate{lo: lo, hi: hi, deltaC: derateDeltaC, endAt: end})
		inj.recomputeInlets(lo, hi)
		return nil
	}
	for id := lo; id < hi; id++ {
		if inj.down[id] {
			continue
		}
		if err := inj.crash(id, repairAfterMin, now); err != nil {
			return err
		}
	}
	return nil
}

// recomputeInlets resets inlet temperatures over [lo, hi) to the
// pre-fault baseline plus every in-effect derate covering each server,
// in derate list order — so inlets return exactly (bit-identically) to
// baseline once all derates expire.
func (inj *Injector) recomputeInlets(lo, hi int) {
	for id := lo; id < hi; id++ {
		c := inj.baseInlet[id]
		for _, d := range inj.derates {
			if id >= d.lo && id < d.hi {
				c += d.deltaC
			}
		}
		inj.c.Server(id).SetInletTempC(c)
	}
}

// expireDerates drops derates whose repair time has arrived and
// restores the affected inlet ranges.
func (inj *Injector) expireDerates(now time.Duration) {
	if len(inj.derates) == 0 {
		return
	}
	kept := inj.derates[:0]
	var expired []activeDerate
	for _, d := range inj.derates {
		if d.endAt > 0 && d.endAt <= now {
			expired = append(expired, d)
			continue
		}
		kept = append(kept, d)
	}
	inj.derates = kept
	for _, d := range expired {
		inj.recomputeInlets(d.lo, d.hi)
	}
}

func (inj *Injector) crash(id int, repairAfterMin float64, now time.Duration) error {
	s := inj.c.Server(id)
	inj.c.MarkFailed(id)
	inj.down[id] = true
	inj.sensors[id].down = true
	moved, lost, err := inj.host.Evacuate(s)
	if err != nil {
		return fmt.Errorf("fault: evacuating server %d: %w", id, err)
	}
	inj.injected++
	inj.evacJobs += uint64(moved)
	inj.lostJobs += uint64(lost)
	inj.crashCount.Inc()
	inj.evacCount.Add(uint64(moved))
	inj.lostCount.Add(uint64(lost))
	inj.migrationsCount.Add(uint64(moved))
	if repairAfterMin > 0 {
		inj.repairAt[id] = now + durMin(repairAfterMin)
	} else {
		inj.repairAt[id] = 0
	}
	return nil
}

func (inj *Injector) repair(id int) {
	inj.c.MarkRepaired(id)
	inj.down[id] = false
	inj.repairAt[id] = 0
	inj.sensors[id].down = false
	s := inj.c.Server(id)
	// A repaired server boots with a cold estimator: re-anchor the
	// shadow at the current air temperature so the estimate restarts
	// from a known state instead of the pre-crash trajectory.
	s.Estimator().Reset(s.AirTempC())
	inj.repaired++
	inj.repairCount.Inc()
}

// Crashes returns the number of injected crashes so far.
func (inj *Injector) Crashes() uint64 { return inj.injected }

// Repairs returns the number of completed repairs so far.
func (inj *Injector) Repairs() uint64 { return inj.repaired }

// Evacuated returns the number of jobs successfully re-placed off
// crashed servers.
func (inj *Injector) Evacuated() uint64 { return inj.evacJobs }

// Lost returns the number of jobs dropped during evacuation because
// the surviving servers had no capacity.
func (inj *Injector) Lost() uint64 { return inj.lostJobs }

// DomainTrips returns the number of correlated domain failures fired
// so far (scheduled and stochastic, crash and derate modes alike).
func (inj *Injector) DomainTrips() uint64 { return inj.domainTrips }

// sensorState interposes on one server's melt-estimator input. Sense
// runs inside the (possibly parallel) physics phase, but only ever
// for its own server, with its own RNG, so draws are deterministic
// for any worker count. down is flipped only on the sequential fault
// band, which never overlaps physics.
type sensorState struct {
	faults []SensorFault // this server's, sorted by StartMin
	rng    *stats.RNG
	down   bool
}

var _ pcm.Sensor = (*sensorState)(nil)

// Sense maps the true air temperature to the sensed reading at sim
// time at. ok=false means no reading (dropout window or crashed
// server): the estimator skips the update and its estimate ages.
func (ss *sensorState) Sense(trueC float64, at time.Duration) (float64, bool) {
	if ss.down {
		return 0, false
	}
	f := ss.active(at)
	if f == nil {
		return trueC, true
	}
	switch f.Kind {
	case KindStuck:
		return f.ValueC, true
	case KindDrift:
		hours := (at - durMin(f.StartMin)).Hours()
		return trueC + f.DriftCPerHour*hours, true
	case KindNoise:
		return trueC + ss.rng.Normal(0, f.StdevC), true
	default: // KindDropout
		return 0, false
	}
}

func (ss *sensorState) active(at time.Duration) *SensorFault {
	for i := range ss.faults {
		f := &ss.faults[i]
		start := durMin(f.StartMin)
		if at < start {
			return nil // sorted: later windows start later still
		}
		if f.EndMin <= 0 || at < durMin(f.EndMin) {
			return f
		}
	}
	return nil
}

func durMin(m float64) time.Duration {
	return time.Duration(m * float64(time.Minute))
}

// sensorSeed derives a per-server RNG seed from the plan seed via a
// splitmix-style finalizer, so adjacent server IDs get uncorrelated
// streams.
func sensorSeed(seed uint64, server int) uint64 {
	z := seed ^ (uint64(server)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// byzSeed derives a per-server Byzantine RNG stream, decorrelated from
// the same server's sensor stream by salting the plan seed first.
func byzSeed(seed uint64, server int) uint64 {
	return sensorSeed(seed^0xa24baed4963ee407, server)
}

// byzState holds one lying server's per-tick report offsets. refresh
// runs once per fault-band tick and consumes randomness; the Filter
// methods are pure reads of the refreshed state, because scheduler
// scans may consult a server's reports several times per tick and an
// RNG draw on the read path would break bit-identity across worker
// counts.
type byzState struct {
	faults []ByzantineFault // this server's, sorted by (StartMin, Kind)
	rng    *stats.RNG

	utilActive, meltActive bool
	utilOffset, meltOffset float64
}

var _ cluster.ReportFilter = (*byzState)(nil)

// refresh recomputes the active lie on each report channel at sim time
// at. The jitter draw happens here, once per active fault per tick, in
// the fault slice's deterministic order.
func (bz *byzState) refresh(at time.Duration) {
	bz.utilActive, bz.meltActive = false, false
	for i := range bz.faults {
		f := &bz.faults[i]
		if at < durMin(f.StartMin) {
			break // sorted: later windows start later still
		}
		if f.EndMin > 0 && at >= durMin(f.EndMin) {
			continue
		}
		off := f.Bias
		if f.Jitter > 0 {
			off += bz.rng.Normal(0, f.Jitter)
		}
		switch f.Kind {
		case ByzUtil:
			bz.utilActive, bz.utilOffset = true, off
		case ByzMelt:
			bz.meltActive, bz.meltOffset = true, off
		}
	}
}

// FilterUtilization applies the active utilization lie, clamped into
// the plausible [0, 1] range — a Byzantine reporter never claims an
// impossible value, which is exactly what makes it hard to detect.
func (bz *byzState) FilterUtilization(trueUtil float64) float64 {
	if !bz.utilActive {
		return trueUtil
	}
	return clamp01(trueUtil + bz.utilOffset)
}

// FilterMeltFrac applies the active melt-fraction lie, clamped into
// [0, 1].
func (bz *byzState) FilterMeltFrac(estFrac float64) float64 {
	if !bz.meltActive {
		return estFrac
	}
	return clamp01(estFrac + bz.meltOffset)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
