package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gcs/internal/clock"
	"gcs/internal/network"
	"gcs/internal/obs"
	"gcs/internal/rat"
	"gcs/internal/search"
)

// e13LongSpec is the acceptance workload: the E13 -long two-node diameter-16
// search configuration (the same cell BenchmarkSearchPrefixCached measures).
func e13LongSpec() CampaignSpec {
	return CampaignSpec{
		Protocol: "gradient",
		Cells: []CellSpec{{
			Topology: "two-node",
			Diameter: rat.FromInt(16),
			Duration: rat.FromInt(32),
		}},
		Rho:            rat.MustFrac(1, 2),
		Rounds:         3,
		Beam:           2,
		DelayMutations: 8,
		MutateTail:     rat.MustFrac(1, 2),
	}
}

// singleProcess runs the spec's one cell through plain search.Search.
func singleProcess(t *testing.T, spec CampaignSpec) *search.Result {
	t.Helper()
	opt, err := spec.CellOptions(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Search(opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultsMatch asserts byte-identity of the distributed contract: best
// value, winning candidate index, witness, schedule script, rates,
// schedules, and the search accounting — everything except EngineSteps
// (shard-layout dependent by design) and Notes (degradations are the
// coordinator's story to tell).
func resultsMatch(t *testing.T, want, got *search.Result) {
	t.Helper()
	if !got.Best.Equal(want.Best) || !got.Baseline.Equal(want.Baseline) {
		t.Fatalf("values differ: best %s vs %s, baseline %s vs %s", got.Best, want.Best, got.Baseline, want.Baseline)
	}
	if got.BestCandidate != want.BestCandidate {
		t.Fatalf("best candidate index differs: %d vs %d", got.BestCandidate, want.BestCandidate)
	}
	if got.Rounds != want.Rounds || got.Evaluated != want.Evaluated {
		t.Fatalf("rounds/evaluated differ: %d/%d vs %d/%d", got.Rounds, got.Evaluated, want.Rounds, want.Evaluated)
	}
	if got.CandidateSteps != want.CandidateSteps {
		t.Fatalf("candidate steps differ: %d vs %d", got.CandidateSteps, want.CandidateSteps)
	}
	if got.Witness.I != want.Witness.I || got.Witness.J != want.Witness.J ||
		!got.Witness.Skew.Equal(want.Witness.Skew) || !got.Witness.At.Equal(want.Witness.At) {
		t.Fatalf("witness differs: %+v vs %+v", got.Witness, want.Witness)
	}
	if len(got.Script) != len(want.Script) {
		t.Fatalf("script sizes differ: %d vs %d", len(got.Script), len(want.Script))
	}
	for k, v := range want.Script {
		gv, ok := got.Script[k]
		if !ok || !gv.Equal(v) {
			t.Fatalf("script entry %v differs: %s vs %s (present=%v)", k, gv, v, ok)
		}
	}
	if len(got.Rates) != len(want.Rates) {
		t.Fatalf("rates lengths differ: %d vs %d", len(got.Rates), len(want.Rates))
	}
	for i := range want.Rates {
		if !got.Rates[i].Equal(want.Rates[i]) {
			t.Fatalf("rate %d differs: %s vs %s", i, got.Rates[i], want.Rates[i])
		}
	}
	if len(got.Schedules) != len(want.Schedules) {
		t.Fatalf("schedule counts differ: %d vs %d", len(got.Schedules), len(want.Schedules))
	}
	for i := range want.Schedules {
		ga, wa := got.Schedules[i].Rates(), want.Schedules[i].Rates()
		if len(ga) != len(wa) {
			t.Fatalf("schedule %d has %d vs %d segments", i, len(ga), len(wa))
		}
		for k := range wa {
			if !ga[k].At.Equal(wa[k].At) || !ga[k].Rate.Equal(wa[k].Rate) {
				t.Fatalf("schedule %d segment %d differs", i, k)
			}
		}
	}
}

// startWorkers spawns k in-process workers.
func startWorkers(t *testing.T, k int) ([]*httptest.Server, []string) {
	t.Helper()
	servers := make([]*httptest.Server, k)
	urls := make([]string, k)
	for i := range servers {
		servers[i] = httptest.NewServer((&Worker{}).Handler())
		urls[i] = servers[i].URL
		t.Cleanup(servers[i].Close)
	}
	return servers, urls
}

// TestDistributedMatchesSingleProcess: the acceptance matrix — 1, 2, and 4
// in-process workers produce byte-identical results to single-process
// Search on the E13 -long workload.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	spec := e13LongSpec()
	want := singleProcess(t, spec)
	for _, k := range []int{1, 2, 4} {
		k := k
		t.Run(fmt.Sprintf("workers=%d", k), func(t *testing.T) {
			_, urls := startWorkers(t, k)
			var events []ProgressEvent
			coord := &Coordinator{
				Spec:    spec,
				Workers: urls,
				Timeout: 30 * time.Second,
				Progress: func(ev ProgressEvent) {
					events = append(events, ev)
				},
			}
			cells, err := coord.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != 1 {
				t.Fatalf("got %d cell results, want 1", len(cells))
			}
			resultsMatch(t, want, cells[0].Result)
			if len(cells[0].Result.Notes) != 0 {
				t.Fatalf("healthy fleet produced degradation notes: %v", cells[0].Result.Notes)
			}
			if len(events) != want.Rounds+1 && len(events) != want.Rounds+2 {
				// One event per evaluated generation: the initial one, every
				// mutation round, and possibly a final non-improving round.
				t.Fatalf("got %d progress events for %d rounds", len(events), want.Rounds)
			}
			for _, ev := range events {
				if ev.Local != 0 {
					t.Fatalf("healthy fleet degraded to local evaluation: %+v", ev)
				}
			}
		})
	}
}

// TestDistributedSurvivesWorkerKill: killing a worker mid-campaign changes
// nothing about the final bytes. With a survivor the shard is reassigned;
// with no survivors it degrades to coordinator-local evaluation and says so
// in Result.Notes.
func TestDistributedSurvivesWorkerKill(t *testing.T) {
	spec := e13LongSpec()
	want := singleProcess(t, spec)

	t.Run("reassigned-to-survivor", func(t *testing.T) {
		servers, urls := startWorkers(t, 2)
		killed := false
		coord := &Coordinator{
			Spec:    spec,
			Workers: urls,
			Timeout: 30 * time.Second,
			Progress: func(ev ProgressEvent) {
				if !killed {
					// Crash worker 0 after the first merged generation: the
					// next generation's shard 0 dispatch must fail over.
					servers[0].Close()
					killed = true
				}
			},
		}
		cells, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		resultsMatch(t, want, cells[0].Result)
		if !killed {
			t.Fatal("kill hook never ran")
		}
		if len(cells[0].Result.Notes) != 0 {
			t.Fatalf("surviving worker should absorb the shard silently, got notes: %v", cells[0].Result.Notes)
		}
	})

	t.Run("degrades-to-local", func(t *testing.T) {
		servers, urls := startWorkers(t, 1)
		killed := false
		coord := &Coordinator{
			Spec:    spec,
			Workers: urls,
			Timeout: 30 * time.Second,
			Progress: func(ev ProgressEvent) {
				if !killed {
					servers[0].Close()
					killed = true
				}
			},
		}
		cells, err := coord.Run()
		if err != nil {
			t.Fatal(err)
		}
		resultsMatch(t, want, cells[0].Result)
		notes := cells[0].Result.Notes
		if len(notes) == 0 {
			t.Fatal("whole-fleet loss left no degradation note")
		}
		for _, n := range notes {
			if !strings.Contains(n, "degraded to coordinator-local evaluation") {
				t.Fatalf("unexpected note: %q", n)
			}
		}
	})
}

// shardDefect breaks a real worker result into a shape a campaign must not
// merge.
type shardDefect struct {
	name  string
	apply func(sr *search.ShardResult) *search.ShardResult
}

// shardDefects are the malformed results the coordinator must survive;
// several used to panic it.
func shardDefects() []shardDefect {
	return []shardDefect{
		{"no result", func(*search.ShardResult) *search.ShardResult { return nil }},
		{"short rates", func(sr *search.ShardResult) *search.ShardResult {
			sr.Top[0].Rates = nil
			return sr
		}},
		{"one schedule for two nodes", func(sr *search.ShardResult) *search.ShardResult {
			sr.Top[0].Schedules = [][]clock.RateSeg{{{Rate: rat.FromInt(1)}}}
			return sr
		}},
		{"empty schedules", func(sr *search.ShardResult) *search.ShardResult {
			sr.Top[0].Schedules = make([][]clock.RateSeg, len(sr.Top[0].Rates))
			return sr
		}},
		{"dropped base", func(sr *search.ShardResult) *search.ShardResult {
			top := sr.Top[:0]
			for _, ce := range sr.Top {
				if ce.ID != 0 {
					top = append(top, ce)
				}
			}
			sr.Top = top
			return sr
		}},
		{"no log", func(sr *search.ShardResult) *search.ShardResult {
			sr.Top[0].Log = nil
			return sr
		}},
		{"miscounted", func(sr *search.ShardResult) *search.ShardResult {
			sr.Evaluated++
			return sr
		}},
		{"duplicate ID", func(sr *search.ShardResult) *search.ShardResult {
			sr.Top = append(sr.Top, sr.Top[0])
			return sr
		}},
		{"foreign ID", func(sr *search.ShardResult) *search.ShardResult {
			sr.Top[0].ID += 1000
			return sr
		}},
		{"foreign failure", func(sr *search.ShardResult) *search.ShardResult {
			sr.ErrID, sr.ErrMsg = 1000, "made up"
			return sr
		}},
	}
}

// defectiveWorker serves shards through a real Worker and applies defect to
// every result before answering.
func defectiveWorker(t *testing.T, defect func(*search.ShardResult) *search.ShardResult) string {
	t.Helper()
	inner := (&Worker{}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var res ShardResponse
		if err := json.NewDecoder(rec.Body).Decode(&res); err != nil || res.Result == nil {
			t.Errorf("inner worker answered HTTP %d without a result: %v", rec.Code, err)
			return
		}
		res.Result = defect(res.Result)
		writeJSON(rw, http.StatusOK, res)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestDistributedSurvivesMalformedResults: a worker whose results are
// malformed is treated as dead, like one that stopped answering: its shard
// is evaluated locally, the cell ends byte-identical to Search, and the
// result says it degraded.
func TestDistributedSurvivesMalformedResults(t *testing.T) {
	spec := e13LongSpec()
	want := singleProcess(t, spec)
	for _, defect := range shardDefects() {
		defect := defect
		t.Run(defect.name, func(t *testing.T) {
			coord := &Coordinator{
				Spec:    spec,
				Workers: []string{defectiveWorker(t, defect.apply)},
				Timeout: 30 * time.Second,
			}
			cells, err := coord.Run()
			if err != nil {
				t.Fatal(err)
			}
			resultsMatch(t, want, cells[0].Result)
			notes := cells[0].Result.Notes
			if len(notes) == 0 || !strings.Contains(notes[0], "degraded to coordinator-local evaluation") {
				t.Fatalf("malformed results left no degradation note: %v", notes)
			}
		})
	}
}

// TestDistributedNoWorkersRunsLocally: an empty fleet is the in-process
// pool, still byte-identical.
func TestDistributedNoWorkersRunsLocally(t *testing.T) {
	spec := e13LongSpec()
	want := singleProcess(t, spec)
	coord := &Coordinator{Spec: spec}
	cells, err := coord.Run()
	if err != nil {
		t.Fatal(err)
	}
	resultsMatch(t, want, cells[0].Result)
}

// TestWorkerRejectsVersionMismatch: the wire protocol is versioned and the
// worker refuses requests it might misinterpret.
func TestWorkerRejectsVersionMismatch(t *testing.T) {
	_, urls := startWorkers(t, 1)
	body, err := json.Marshal(ShardRequest{Version: ProtocolVersion + 1, Spec: e13LongSpec()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(urls[0]+PathShard, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("version mismatch got HTTP %d, want 400", res.StatusCode)
	}
	var sr ShardResponse
	if err := json.NewDecoder(res.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sr.Error, "protocol version") {
		t.Fatalf("mismatch error %q does not name the protocol version", sr.Error)
	}
	if err := Ping(nil, urls[0]); err != nil {
		t.Fatalf("ping failed on a live worker: %v", err)
	}
}

// endlessByte reads as an endless run of one byte.
type endlessByte byte

func (b endlessByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestWorkerRejectsOversizeBody: a request body past the cap is answered
// with 413 in the versioned JSON error shape, and nothing is evaluated.
func TestWorkerRejectsOversizeBody(t *testing.T) {
	w := &Worker{Registry: obs.NewRegistry()}
	body := io.MultiReader(
		strings.NewReader(`{"version":1,"spec":{"protocol":"`),
		io.LimitReader(endlessByte('a'), maxShardBytes))
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathShard, body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body got HTTP %d, want 413", rec.Code)
	}
	var sr ShardResponse
	if err := json.NewDecoder(rec.Body).Decode(&sr); err != nil {
		t.Fatalf("oversize-body reply is not the versioned JSON error: %v", err)
	}
	if sr.Version != ProtocolVersion || !strings.Contains(sr.Error, "too large") {
		t.Fatalf("oversize-body error = %+v", sr)
	}
	met := w.Metrics()
	if met.ShardSeconds.Count() != 0 || met.Shards.Value() != 0 || met.Engine.Steps.Value() != 0 {
		t.Fatalf("oversize body was evaluated: %d shard timings, %d shards, %d engine steps",
			met.ShardSeconds.Count(), met.Shards.Value(), met.Engine.Steps.Value())
	}
}

// TestWorkerValidatesSpec: the worker validates the decoded spec and
// answers an invalid one with 400 before evaluating anything.
func TestWorkerValidatesSpec(t *testing.T) {
	w := &Worker{Registry: obs.NewRegistry()}
	spec := e13LongSpec()
	spec.Cells[0] = CellSpec{Topology: "line", N: 1000000, Duration: rat.FromInt(4)}
	body, err := json.Marshal(ShardRequest{Version: ProtocolVersion, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathShard, bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid spec got HTTP %d, want 400", rec.Code)
	}
	var sr ShardResponse
	if err := json.NewDecoder(rec.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Version != ProtocolVersion || !strings.Contains(sr.Error, "exceeds the cap") {
		t.Fatalf("invalid-spec error = %+v", sr)
	}
	if met := w.Metrics(); met.ShardSeconds.Count() != 0 {
		t.Fatalf("invalid spec was evaluated")
	}
}

// TestPlanCampaign: `gcssearch plan` bounds — exact candidate counts from
// the move-set arithmetic, no engine constructed.
func TestPlanCampaign(t *testing.T) {
	spec := e13LongSpec()
	plan, err := PlanCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 1 {
		t.Fatalf("got %d cell plans, want 1", len(plan.Cells))
	}
	cp := plan.Cells[0]
	if cp.Nodes != 2 {
		t.Fatalf("two-node cell planned %d nodes", cp.Nodes)
	}
	if cp.Generations != 1+spec.Rounds {
		t.Fatalf("planned %d generations, want %d", cp.Generations, 1+spec.Rounds)
	}
	// Per mutation generation: Beam × (2 rate flips per node + 3 snaps per
	// sampled decision) = 2 × (4 + 24) = 56; plus the initial base.
	wantPerGen := spec.Beam * (2*2 + 3*spec.DelayMutations)
	if cp.CandidatesPerGen[1] != wantPerGen {
		t.Fatalf("planned %d candidates/gen, want %d", cp.CandidatesPerGen[1], wantPerGen)
	}
	if cp.MaxCandidates != 1+spec.Rounds*wantPerGen {
		t.Fatalf("planned %d max candidates, want %d", cp.MaxCandidates, 1+spec.Rounds*wantPerGen)
	}
	if plan.MaxCandidates != cp.MaxCandidates {
		t.Fatalf("plan total %d, want the one cell's %d", plan.MaxCandidates, cp.MaxCandidates)
	}
	// The bound must actually bound: the real run evaluates fewer (dedup,
	// early convergence).
	real := singleProcess(t, spec)
	if real.Evaluated > cp.MaxCandidates {
		t.Fatalf("plan bound %d below real evaluation count %d", cp.MaxCandidates, real.Evaluated)
	}
}

// TestPlanBoundsHoldOnRun drives specs through the Coordinator and holds
// the plan to every generation it merged: per cell, at most Generations
// rounds, and round r evaluating at most CandidatesPerGen[r] candidates.
// The specs are the committed example campaign and an E13 cell with
// windowed rate surgery, so every term of the per-parent bound is live.
func TestPlanBoundsHoldOnRun(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaign_e13_long.json"))
	if err != nil {
		t.Fatal(err)
	}
	var example CampaignSpec
	if err := json.Unmarshal(data, &example); err != nil {
		t.Fatal(err)
	}
	windows := e13LongSpec()
	windows.RateWindows = 4
	for name, spec := range map[string]CampaignSpec{"example": example, "rate-windows": windows} {
		plan, err := PlanCampaign(spec)
		if err != nil {
			t.Fatal(err)
		}
		var events []ProgressEvent
		coord := &Coordinator{Spec: spec, Progress: func(ev ProgressEvent) { events = append(events, ev) }}
		if _, err := coord.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rounds := make([]int, len(plan.Cells))
		for _, ev := range events {
			cp := plan.Cells[ev.Cell]
			rounds[ev.Cell]++
			if ev.Round >= cp.Generations {
				t.Errorf("%s cell %d: round %d beyond the planned %d generations", name, ev.Cell, ev.Round, cp.Generations)
				continue
			}
			if ev.Candidates > cp.CandidatesPerGen[ev.Round] {
				t.Errorf("%s cell %d round %d: %d candidates, plan bound %d",
					name, ev.Cell, ev.Round, ev.Candidates, cp.CandidatesPerGen[ev.Round])
			}
		}
		for i, cp := range plan.Cells {
			if rounds[i] == 0 || rounds[i] > cp.Generations {
				t.Errorf("%s cell %d: %d rounds merged, plan bound %d", name, i, rounds[i], cp.Generations)
			}
		}
	}
}

// invalidSpecs are the misconfigurations a CLI user or a remote caller will
// actually produce.
func invalidSpecs() []CampaignSpec {
	return []CampaignSpec{
		{},
		{Protocol: "gradient"},
		{Protocol: "nope", Cells: []CellSpec{{Topology: "line", N: 3, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "möbius", N: 3, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "line", N: 3}}},
		{Protocol: "gradient", Adversary: "nope", Cells: []CellSpec{{Topology: "line", N: 3, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Objective: "nope", Cells: []CellSpec{{Topology: "line", N: 3, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "two-node", Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "line", N: 1000000, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Cells: []CellSpec{{Topology: "complete", N: network.MaxNodes + 1, Duration: rat.FromInt(4)}}},
		{Protocol: "gradient", Rounds: maxRounds + 1, Cells: []CellSpec{{Topology: "line", N: 3, Duration: rat.FromInt(4)}}},
	}
}

// TestSpecValidate rejects every invalid spec and accepts the E13 one.
func TestSpecValidate(t *testing.T) {
	for i, s := range invalidSpecs() {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %d validated: %+v", i, s)
		}
	}
	good := e13LongSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}
