package dist

import (
	"bytes"
	"encoding/json"
	"math/big"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCampaignSpec drives arbitrary bytes through the spec boundary
// `gcssearch plan` and `gcssearch run` expose: DecodeSpec, NewCampaign, and for
// a valid spec Plan, none of which may panic. A valid spec must plan
// to counts of at least 1, and each MaxCandidates, per cell and in total,
// must equal the sum it is made of, summed without overflow: a plan whose
// arithmetic wrapped fails here. A valid spec must also survive a marshal →
// unmarshal → marshal round trip byte for byte.
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
	// The former gcssim -search configurations: an rgg cell and an explicit
	// "rho": "0" among them.
	for _, tc := range searchModeCases() {
		f.Add([]byte(tc.spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		c, err := NewCampaign(spec)
		if err != nil {
			return
		}
		checkPlanSums(t, c.Plan())
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		back, err := DecodeSpec(first)
		if err != nil {
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

// checkPlanSums requires every count in plan to be at least 1, and each
// MaxCandidates to equal, in unbounded integers, the sum of the counts it
// totals: per cell its CandidatesPerGen, one per generation, and for the plan
// its cells'.
func checkPlanSums(t *testing.T, plan *Plan) {
	t.Helper()
	if len(plan.Cells) == 0 || plan.MaxCandidates < 1 {
		t.Fatalf("plan of %d cells bounds %d candidates", len(plan.Cells), plan.MaxCandidates)
	}
	total := new(big.Int)
	for i, cp := range plan.Cells {
		if cp.Nodes < 1 || cp.Generations < 1 || len(cp.CandidatesPerGen) != cp.Generations {
			t.Fatalf("cell %d: %d nodes, %d generations, %d per-generation bounds", i, cp.Nodes, cp.Generations, len(cp.CandidatesPerGen))
		}
		sum := new(big.Int)
		for r, n := range cp.CandidatesPerGen {
			if n < 1 {
				t.Fatalf("cell %d generation %d: bound %d", i, r, n)
			}
			sum.Add(sum, big.NewInt(int64(n)))
		}
		if cp.MaxCandidates < 1 || sum.Cmp(big.NewInt(int64(cp.MaxCandidates))) != 0 {
			t.Fatalf("cell %d: MaxCandidates %d, its generations sum to %s", i, cp.MaxCandidates, sum)
		}
		total.Add(total, sum)
	}
	if total.Cmp(big.NewInt(int64(plan.MaxCandidates))) != 0 {
		t.Fatalf("plan MaxCandidates %d, its cells sum to %s", plan.MaxCandidates, total)
	}
}
