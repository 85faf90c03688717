package vmt

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"vmt/internal/stats"
)

// resultJSON is the serialized form of a Result: configuration echo
// plus the sampled series. Grids are included only when recorded.
type resultJSON struct {
	Policy       Policy        `json:"policy"`
	Servers      int           `json:"servers"`
	GV           float64       `json:"gv,omitempty"`
	WaxThreshold float64       `json:"wax_threshold,omitempty"`
	StepSeconds  float64       `json:"step_seconds"`
	Seed         uint64        `json:"seed"`
	InletTempC   float64       `json:"inlet_temp_c"`
	InletStdevC  float64       `json:"inlet_stdev_c,omitempty"`
	TaskArrivals uint64        `json:"task_arrivals,omitempty"`
	TaskDrops    uint64        `json:"task_drops,omitempty"`
	Series       seriesJSONMap `json:"series"`
	AirTempGrid  [][]float64   `json:"air_temp_grid,omitempty"`
	MeltFracGrid [][]float64   `json:"melt_frac_grid,omitempty"`
}

type seriesJSONMap map[string][]float64

// WriteJSON serializes the result for external tooling (plotting,
// archiving). The format is stable: series are keyed by name with the
// sampling step recorded once.
func (r *Result) WriteJSON(w io.Writer) error {
	out := resultJSON{
		Policy:       r.Config.Policy,
		Servers:      r.Config.Servers,
		GV:           r.Config.GV,
		WaxThreshold: r.Config.WaxThreshold.Value(),
		StepSeconds:  r.Config.Step.Seconds(),
		Seed:         r.Config.Seed,
		InletTempC:   r.Config.InletTempC.Value(),
		InletStdevC:  r.Config.InletStdevC,
		TaskArrivals: r.TaskArrivals,
		TaskDrops:    r.TaskDrops,
		Series:       seriesJSONMap{},
		AirTempGrid:  r.AirTempGrid,
		MeltFracGrid: r.MeltFracGrid,
	}
	for _, row := range runSeries {
		if s := *row.field(r); s != nil {
			out.Series[row.name] = s.Values
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadResultJSON loads a serialized result. Only the series and the
// identifying configuration fields round-trip; the full Config (trace
// spec, hardware spec) is not reconstructed.
func ReadResultJSON(r io.Reader) (*Result, error) {
	var in resultJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("vmt: decoding result: %w", err)
	}
	if in.StepSeconds <= 0 {
		return nil, fmt.Errorf("vmt: result has non-positive step")
	}
	step := time.Duration(in.StepSeconds * float64(time.Second))
	res := &Result{
		Config: Config{
			Policy:       in.Policy,
			Servers:      in.Servers,
			GV:           in.GV,
			WaxThreshold: Some(in.WaxThreshold),
			Step:         step,
			Seed:         in.Seed,
			InletTempC:   Some(in.InletTempC),
			InletStdevC:  in.InletStdevC,
		},
		AirTempGrid:  in.AirTempGrid,
		MeltFracGrid: in.MeltFracGrid,
		TaskArrivals: in.TaskArrivals,
		TaskDrops:    in.TaskDrops,
	}
	for _, row := range runSeries {
		if vals, ok := in.Series[row.name]; ok {
			*row.field(res) = &stats.Series{Start: step, Step: step, Values: vals}
		}
	}
	if res.CoolingLoadW == nil {
		return nil, fmt.Errorf("vmt: result missing cooling_load_w series")
	}
	return res, nil
}
