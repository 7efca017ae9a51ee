package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// DefaultNsPerStep prices an engine step when no BENCH_perf snapshot is
// available: the rough magnitude of the committed SearchPrefixCached
// trajectory. Plans built on it say so in CostModel.Source.
const DefaultNsPerStep = 1500.0

// CostModel converts estimated engine steps into estimated wall-clock: the
// `gcssearch plan` pricing input.
type CostModel struct {
	// NsPerStep is the modeled cost of one dispatched engine event.
	NsPerStep float64
	// Source names where NsPerStep came from: a measurement name from the
	// snapshot, or "default" when none applied.
	Source string
}

// LoadSnapshot reads a BENCH_perf.json measurement snapshot.
func LoadSnapshot(path string) ([]Measurement, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []Measurement
	if err := json.Unmarshal(data, &ms); err != nil {
		return nil, fmt.Errorf("perf: parse snapshot %s: %w", path, err)
	}
	return ms, nil
}

// NewCostModel derives a cost model from measurements, preferring the search
// workload's ns/step (the exact path a campaign executes), then the
// streaming-engine workload, then the built-in default. An empty or nil
// snapshot yields the default model, so planning works before any
// measurement exists.
func NewCostModel(ms []Measurement) CostModel {
	model := CostModel{NsPerStep: DefaultNsPerStep, Source: "default"}
	for _, prefix := range []string{"SearchPrefixCached", "SearchEndToEnd", "EngineStream"} {
		for _, m := range ms {
			if strings.HasPrefix(m.Name, prefix) && m.NsPerStep > 0 {
				model.NsPerStep, model.Source = m.NsPerStep, m.Name
				return model
			}
		}
	}
	return model
}

// LoadCostModel is LoadSnapshot + NewCostModel with a missing snapshot file
// degrading to the default model rather than failing: pricing must never be
// the reason a campaign cannot be planned.
func LoadCostModel(path string) CostModel {
	ms, err := LoadSnapshot(path)
	if err != nil {
		return CostModel{NsPerStep: DefaultNsPerStep, Source: "default"}
	}
	return NewCostModel(ms)
}
