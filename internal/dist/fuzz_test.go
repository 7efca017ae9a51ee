package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gcs/internal/perf"
)

// FuzzCampaignSpec drives arbitrary bytes through the spec boundary a
// worker and `gcssearch plan` expose: decode, Validate, and for a valid spec
// PlanCampaign, none of which may panic. A valid spec must also survive a
// marshal → unmarshal → marshal round trip byte for byte, since coordinator
// and workers rebuild identical search options from its wire form.
func FuzzCampaignSpec(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaign_e13_long.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, spec := range append(invalidSpecs(), e13LongSpec()) {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	model := perf.CostModel{NsPerStep: 1000, Source: "fuzz"}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		if _, err := PlanCampaign(spec, model, 4); err != nil {
			t.Fatalf("valid spec failed to plan: %v", err)
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		var back CampaignSpec
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("marshalled spec does not decode: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not byte-stable:\n%s\n%s", first, second)
		}
	})
}
