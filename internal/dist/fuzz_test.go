package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gcs/internal/rat"
	"gcs/internal/search"
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec CampaignSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		if _, err := PlanCampaign(spec); err != nil {
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

// FuzzShardRequest drives arbitrary bytes through the path a worker's
// POST /v1/shard takes before evaluating anything: decode into a
// ShardRequest, check the protocol version, Validate the spec. Nothing on
// that path may panic. A request that passes must survive a marshal →
// unmarshal → marshal round trip byte for byte: the coordinator and the
// worker must read the same generation from its wire form. The seeds are the
// invalid specs plus a real request, the E13 -long cell's first mutation
// round, so the corpus starts with parent logs and scripted candidates.
func FuzzShardRequest(f *testing.F) {
	spec := e13LongSpec()
	opt, err := spec.CellOptions(0)
	if err != nil {
		f.Fatal(err)
	}
	c, err := search.NewCampaign(opt)
	if err != nil {
		f.Fatal(err)
	}
	sr, err := c.EvaluateRange(0, c.NumPending())
	if err != nil {
		f.Fatal(err)
	}
	if err := c.Absorb([]*search.ShardResult{sr}); err != nil {
		f.Fatal(err)
	}
	gen := c.Generation()
	if len(gen.Parents) == 0 || len(gen.Candidates) == 0 {
		f.Fatalf("first mutation round has %d parents and %d candidates", len(gen.Parents), len(gen.Candidates))
	}
	reqs := []ShardRequest{{Version: ProtocolVersion, Spec: spec, Generation: gen, Hi: len(gen.Candidates)}}
	for _, s := range invalidSpecs() {
		reqs = append(reqs, ShardRequest{Version: ProtocolVersion, Spec: s})
	}
	for _, req := range reqs {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ShardRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		if req.Version != ProtocolVersion {
			return
		}
		if err := req.Spec.Validate(); err != nil {
			return
		}
		first, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		var back ShardRequest
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("marshalled request does not decode: %v\n%s", err, first)
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

// FuzzShardResult drives arbitrary bytes through the path a worker's answer
// takes on the coordinator: decode a ShardResult, CheckShard it against a
// two-node campaign's pending generation, and Absorb it, which must never
// panic. Absorb must reject what CheckShard rejects and merge what it
// accepts, unless the result reports a failed candidate; a campaign that
// absorbed a result must export its next generation. The seeds are the
// campaign's real round-zero result and the defects
// TestDistributedSurvivesMalformedResults serves.
func FuzzShardResult(f *testing.F) {
	spec := CampaignSpec{
		Protocol: "max-gossip",
		Cells:    []CellSpec{{Topology: "two-node", Diameter: rat.FromInt(2), Duration: rat.FromInt(4)}},
		Rho:      rat.MustFrac(1, 2),
		Rounds:   1,
		Beam:     1,
	}
	opt, err := spec.CellOptions(0)
	if err != nil {
		f.Fatal(err)
	}
	campaign := func(tb testing.TB) *search.Campaign {
		c, err := search.NewCampaign(opt)
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	c := campaign(f)
	result := func() *search.ShardResult {
		sr, err := c.EvaluateRange(0, c.NumPending())
		if err != nil {
			f.Fatal(err)
		}
		return sr
	}
	seeds := []*search.ShardResult{result()}
	for _, defect := range shardDefects() {
		seeds = append(seeds, defect.apply(result()))
	}
	for _, sr := range seeds {
		data, err := json.Marshal(sr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sr *search.ShardResult
		if err := json.Unmarshal(data, &sr); err != nil {
			return
		}
		c := campaign(t)
		checkErr := c.CheckShard(0, c.NumPending(), sr)
		absorbErr := c.Absorb([]*search.ShardResult{sr})
		if checkErr != nil && absorbErr == nil {
			t.Fatalf("Absorb merged a result CheckShard rejects: %v", checkErr)
		}
		if checkErr == nil && sr.ErrID < 0 && absorbErr != nil {
			t.Fatalf("Absorb rejects a result CheckShard accepts: %v", absorbErr)
		}
		if absorbErr == nil && !c.Done() {
			c.Generation()
		}
	})
}
