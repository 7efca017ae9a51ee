package search

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// runSharded executes opt as a distributed-style campaign: every generation
// is exported in wire form, JSON round-tripped (exactly what the coordinator
// ships to workers), split into `shards` contiguous ranges — empty ranges
// included — evaluated independently via EvaluateShard, JSON round-tripped
// again (the worker's response), and merged with Absorb.
func runSharded(t *testing.T, opt Options, shards int) *Result {
	t.Helper()
	c, err := NewCampaign(opt)
	if err != nil {
		t.Fatal(err)
	}
	for !c.Done() {
		data, err := json.Marshal(c.Generation())
		if err != nil {
			t.Fatal(err)
		}
		var gen Generation
		if err := json.Unmarshal(data, &gen); err != nil {
			t.Fatal(err)
		}
		n := len(gen.Candidates)
		results := make([]*ShardResult, 0, shards)
		for s := 0; s < shards; s++ {
			lo, hi := s*n/shards, (s+1)*n/shards
			sr, err := EvaluateShard(opt, &gen, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := json.Marshal(sr)
			if err != nil {
				t.Fatal(err)
			}
			back := new(ShardResult)
			if err := json.Unmarshal(buf, back); err != nil {
				t.Fatal(err)
			}
			results = append(results, back)
		}
		if err := c.Absorb(results); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// shardCounts is the required invariance matrix: a single shard, a small
// split, a shard count exceeding most generations (forcing empty shards),
// and one past the worker-pool width.
func shardCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0) + 1}
}

// TestShardLayoutInvariance: Search over any partition of the candidate pool
// merges to the byte-identical single-pool result. The per-shard top-Beam
// plus the baseline candidate is always a superset of the global top-Beam's
// intersection with the shard, so the merge loses nothing — whatever the
// layout, including empty shards.
func TestShardLayoutInvariance(t *testing.T) {
	opt := lineOpts(t, 4, 0)
	single, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts() {
		sharded := runSharded(t, lineOpts(t, 4, 0), shards)
		resultsEqual(t, single, sharded)
	}
}

// TestShardLayoutInvarianceWithRateWindows: windowed rate surgery carries
// full schedule overrides across the wire; they must round-trip exactly.
func TestShardLayoutInvarianceWithRateWindows(t *testing.T) {
	mk := func() Options {
		opt := lineOpts(t, 3, 0)
		opt.RateWindows = 2
		opt.Rounds = 2
		return opt
	}
	single, err := Search(mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts() {
		sharded := runSharded(t, mk(), shards)
		resultsEqual(t, single, sharded)
	}
}

// TestShardLayoutInvarianceStatefulBase: an adaptive (stateful, cloneable)
// Base is fork- and shard-safe — every shard evaluates against independent
// clones of the initial state, so any layout reproduces the single-pool
// bytes.
func TestShardLayoutInvarianceStatefulBase(t *testing.T) {
	mk := func() Options {
		opt := lineOpts(t, 4, 0)
		opt.Base = adaptiveBase(t, opt.Net, opt.Duration)
		return opt
	}
	single, err := Search(mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts() {
		sharded := runSharded(t, mk(), shards)
		resultsEqual(t, single, sharded)
	}
}

// TestShardCandidateStepsInvariant: CandidateSteps (the from-scratch cost of
// every evaluation) must not depend on the shard layout; EngineSteps may —
// each shard replays its own trunk prefixes — and for any split beyond one
// shard of one pool it strictly exceeds the single-pool dispatch count on a
// prefix-heavy workload.
func TestShardCandidateStepsInvariant(t *testing.T) {
	opt := lineOpts(t, 4, 0)
	single, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts() {
		sharded := runSharded(t, lineOpts(t, 4, 0), shards)
		if sharded.CandidateSteps != single.CandidateSteps {
			t.Fatalf("shards=%d: CandidateSteps %d, single-pool %d",
				shards, sharded.CandidateSteps, single.CandidateSteps)
		}
	}
}

// TestEvaluateShardRejectsSerialBase: a stateful, non-cloneable Base cannot
// be forked, replicated or replayed, so neither the coordinator's Campaign
// nor a worker's EvaluateShard accepts it.
func TestEvaluateShardRejectsSerialBase(t *testing.T) {
	opt := lineOpts(t, 3, 0)
	c, err := NewCampaign(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Base = &pollingAdversary{}
	if _, err := NewCampaign(opt); err == nil || !strings.Contains(err.Error(), "not cloneable") {
		t.Fatalf("NewCampaign with a non-cloneable base: err = %v", err)
	}
	if _, err := EvaluateShard(opt, c.Generation(), 0, c.NumPending()); err == nil || !strings.Contains(err.Error(), "not cloneable") {
		t.Fatalf("EvaluateShard with a non-cloneable base: err = %v", err)
	}
}

// TestAbsorbRejectsIncompleteCoverage: shard results must cover the pending
// generation exactly; losing a shard is a coordinator bug (or a retry), not
// a silent hole in the pool.
func TestAbsorbRejectsIncompleteCoverage(t *testing.T) {
	opt := lineOpts(t, 3, 0)
	c, err := NewCampaign(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 is the lone base candidate; absorb it to reach a mutation
	// generation with a real pool.
	sr, err := c.EvaluateRange(0, c.NumPending())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Absorb([]*ShardResult{sr}); err != nil {
		t.Fatal(err)
	}
	n := c.NumPending()
	if n < 2 {
		t.Fatalf("mutation generation has %d candidates, want >= 2", n)
	}
	partial, err := c.EvaluateRange(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Absorb([]*ShardResult{partial}); err == nil {
		t.Fatal("Absorb accepted partial coverage")
	}
	// Full coverage after the rejected partial absorb still works: the
	// campaign state must be untouched by the failed merge.
	for !c.Done() {
		full, err := c.EvaluateRange(0, c.NumPending())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Absorb([]*ShardResult{full}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, want, res)
}
