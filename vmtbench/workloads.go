package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math"
	"time"

	"vmt"
	"vmt/internal/experiment"
	"vmt/internal/trace"
)

// Workload inputs. Every input is generated from the workload seed; the
// program under test sees only the generated configuration.

// faultStudyJSON is a frozen copy of the repository's
// correlated-fault-study spec, so that edits to the study do not
// silently change the benchmark.
//
//go:embed inputs/correlated-fault-study.json
var faultStudyJSON []byte

// workloadDef describes one named workload.
type workloadDef struct {
	name string
	// defaultSeed reproduces the committed study exactly; only runs at
	// this seed are compared against expected.json.
	defaultSeed uint64
	// servers and policy describe the stepped workloads; fault-sweep
	// runs a spec instead.
	servers int
	policy  vmt.Policy
	gv      float64
	stepped bool
	// physicsWorkers is Config.PhysicsWorkers; 0 lets the cluster
	// choose (2 goroutines at 1,000 servers on a 2-CPU host).
	physicsWorkers int
	// batchWorkers bounds the spec batch runner (fault-sweep only).
	batchWorkers int
}

var workloads = []workloadDef{
	{name: "paper-wa-1k", defaultSeed: 1802, servers: 1000, policy: vmt.PolicyVMTWA, gv: 22, stepped: true},
	// rr-16k steps physics on one goroutine: with two, every tick waits
	// for both CPUs of a 2-CPU host, and the host's scheduling jitter
	// dominated the tick-time tail (see README.md).
	{name: "rr-16k", defaultSeed: 1802, servers: 16000, policy: vmt.PolicyRoundRobin, stepped: true, physicsWorkers: 1},
	{name: "fault-sweep", defaultSeed: 1, batchWorkers: 2},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// inputs are one workload's generated inputs.
type inputs struct {
	def  workloadDef
	seed uint64
	// horizon, when positive, shortens every run (smoke tests only).
	horizon time.Duration
}

// paperTrace is the paper's two-day trace with its noise drawn from
// seed; the default seed 1802 is the paper trace itself.
func paperTrace(seed uint64) trace.Spec {
	t := trace.PaperTwoDay()
	t.Seed = seed
	return t
}

// config is the stepped workloads' run configuration.
func (in inputs) config() vmt.Config {
	return vmt.Config{
		Servers:        in.def.servers,
		Policy:         in.def.policy,
		GV:             in.def.gv,
		Trace:          paperTrace(in.seed),
		Horizon:        in.horizon,
		PhysicsWorkers: in.def.physicsWorkers,
	}
}

// baselineConfig is the round-robin reference of the same fleet and
// trace, for the model-error figure.
func (in inputs) baselineConfig() vmt.Config {
	cfg := vmt.BaselineScenario(in.def.servers)
	cfg.Trace = paperTrace(in.seed)
	cfg.Horizon = in.horizon
	return cfg
}

// spec decodes the fault study and overrides its base seed and every
// fault-plan seed with the workload seed.
func (in inputs) spec() (experiment.Spec, error) {
	if in.seed > math.MaxInt64 {
		return experiment.Spec{}, fmt.Errorf("fault-sweep seed %d exceeds a spec setting's range", in.seed)
	}
	spec, err := experiment.DecodeSpec(bytes.NewReader(faultStudyJSON))
	if err != nil {
		return experiment.Spec{}, err
	}
	spec.Base["seed"] = int(in.seed)
	if in.horizon > 0 {
		spec.Base["horizon_min"] = in.horizon.Minutes()
	}
	for _, ax := range spec.Axes {
		for _, c := range ax.Cases {
			if plan, ok := c.Set["faults"].(map[string]any); ok {
				plan["seed"] = int(in.seed)
			}
		}
	}
	return spec, nil
}

// expansion is a spec expanded into its grid, as the batch runner sees
// it before the first tick.
type expansion struct {
	spec      experiment.Spec
	points    []experiment.Point
	baselines []experiment.Point
}

// expand generates and expands the fault study: the experiment layer's
// share of set-up.
func (in inputs) expand() (expansion, error) {
	spec, err := in.spec()
	if err != nil {
		return expansion{}, err
	}
	if err := spec.Validate(); err != nil {
		return expansion{}, err
	}
	e := expansion{spec: spec, points: spec.Points(), baselines: spec.BaselinePoints()}
	if _, err := spec.BaselineIndex(e.points, e.baselines); err != nil {
		return expansion{}, err
	}
	return e, nil
}

// runs is the number of simulations one spec execution performs.
func (e expansion) runs() int { return len(e.points) + len(e.baselines) }
