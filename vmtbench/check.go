package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"vmt/internal/experiment"
)

// Output checks. At a workload's default seed every run must match the
// values committed in expected.json; at any other seed every
// repetition must agree with the first.

//go:embed expected.json
var expectedJSON []byte

// steppedExpect is the committed outcome of a stepped workload.
type steppedExpect struct {
	Seed          uint64  `json:"seed"`
	Ticks         int     `json:"ticks"`
	PeakCoolingW  float64 `json:"peak_cooling_w"`
	CoolingDigest string  `json:"cooling_digest"`
}

// row is one reduced fault-study row.
type row struct {
	Correlation  string  `json:"correlation"`
	Variant      string  `json:"variant"`
	ReductionPct float64 `json:"reduction_pct"`
}

type sweepExpect struct {
	Seed uint64 `json:"seed"`
	Rows []row  `json:"rows"`
}

type expectations struct {
	PaperWA1k  steppedExpect `json:"paper-wa-1k"`
	RR16k      steppedExpect `json:"rr-16k"`
	FaultSweep sweepExpect   `json:"fault-sweep"`
}

func loadExpectations() (expectations, error) {
	var e expectations
	err := json.Unmarshal(expectedJSON, &e)
	return e, err
}

func (e expectations) stepped(name string) steppedExpect {
	if name == "rr-16k" {
		return e.RR16k
	}
	return e.PaperWA1k
}

// digest is an FNV-1a hash over the exact bits of a series.
func digest(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func peak(xs []float64) float64 {
	p := math.Inf(-1)
	for _, x := range xs {
		p = math.Max(p, x)
	}
	return p
}

// same compares two outcomes bit for bit.
func (a steppedExpect) same(b steppedExpect) bool {
	return a.Seed == b.Seed && a.Ticks == b.Ticks && a.CoolingDigest == b.CoolingDigest &&
		math.Float64bits(a.PeakCoolingW) == math.Float64bits(b.PeakCoolingW)
}

// steppedOutcome reduces a stepped run to what is checked.
func steppedOutcome(seed uint64, o output) steppedExpect {
	return steppedExpect{Seed: seed, Ticks: len(o.Cooling), PeakCoolingW: peak(o.Cooling), CoolingDigest: digest(o.Cooling)}
}

// checker holds what the first repetition of a run produced, so later
// repetitions can be compared with it.
type checker struct {
	exp       expectations
	in        inputs
	wantTicks int
	firstStep *steppedExpect
	firstRows []row
}

func newChecker(in inputs) (*checker, error) {
	exp, err := loadExpectations()
	if err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	ticks := int(paperTrace(in.seed).Days) * 1440
	if in.horizon > 0 {
		ticks = int(in.horizon.Minutes())
	}
	return &checker{exp: exp, in: in, wantTicks: ticks}, nil
}

func (c *checker) atDefault() bool { return c.in.seed == c.in.def.defaultSeed && c.in.horizon == 0 }

// stepped checks one stepped run: the full horizon, no throttling (the
// paper's deployment constraint), agreement with the first
// repetition, and at the default seed the committed values.
func (c *checker) stepped(o output) error {
	got := steppedOutcome(c.in.seed, o)
	if got.Ticks != c.wantTicks {
		return fmt.Errorf("%d ticks, want %d", got.Ticks, c.wantTicks)
	}
	if o.Throttle != 0 {
		return fmt.Errorf("ThrottleMinutes = %d, want 0", o.Throttle)
	}
	if c.firstStep == nil {
		c.firstStep = &got
	} else if !got.same(*c.firstStep) {
		return fmt.Errorf("repetition disagrees: %+v vs first %+v", got, *c.firstStep)
	}
	if !c.atDefault() {
		return nil
	}
	want := c.exp.stepped(c.in.def.name)
	if !got.same(want) {
		return fmt.Errorf("outcome %+v, expected %+v", got, want)
	}
	return nil
}

// rowsOf flattens reduced spec rows in their emitted order.
func rowsOf(rs []experiment.Row) ([]row, error) {
	out := make([]row, len(rs))
	for i, r := range rs {
		corr, ok1 := r.Labels["correlation"].(string)
		variant, ok2 := r.Labels["variant"].(string)
		red, ok3 := r.Values["reduction_pct"]
		if !ok1 || !ok2 || !ok3 || len(r.Labels) != 2 || len(r.Values) != 1 {
			return nil, fmt.Errorf("row %d has unexpected shape: %v %v", i, r.Labels, r.Values)
		}
		out[i] = row{Correlation: corr, Variant: variant, ReductionPct: red}
	}
	return out, nil
}

func sameRows(a, b []row) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Correlation != b[i].Correlation || a[i].Variant != b[i].Variant ||
			math.Float64bits(a[i].ReductionPct) != math.Float64bits(b[i].ReductionPct) {
			return fmt.Sprintf("row %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return ""
}

// sweep checks one execution of the fault study.
func (c *checker) sweep(rs []row) error {
	if c.firstRows == nil {
		c.firstRows = rs
	} else if d := sameRows(rs, c.firstRows); d != "" {
		return fmt.Errorf("repetition disagrees with the first: %s", d)
	}
	if !c.atDefault() {
		return nil
	}
	if d := sameRows(rs, c.exp.FaultSweep.Rows); d != "" {
		return fmt.Errorf("rows differ from expected.json: %s", d)
	}
	return nil
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
