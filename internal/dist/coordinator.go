package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gcs/internal/search"
)

// DefaultShardTimeout bounds one shard round-trip when Coordinator.Timeout
// is zero.
const DefaultShardTimeout = 120 * time.Second

// ProgressEvent reports one merged generation: `gcssearch run` streams these
// as JSON lines.
type ProgressEvent struct {
	Cell       int    `json:"cell"`
	CellName   string `json:"cell_name"`
	Round      int    `json:"round"`
	Candidates int    `json:"candidates"`
	Shards     int    `json:"shards"`
	// Remote and Local count where the generation's shards actually ran;
	// Local > 0 with workers configured means degradation happened (the
	// reasons land in Result.Notes).
	Remote    int    `json:"remote"`
	Local     int    `json:"local"`
	Evaluated int    `json:"evaluated"` // cumulative candidate evaluations in the cell
	Best      string `json:"best"`      // best objective value merged so far (exact rational)
}

// CellResult pairs a cell with its merged search outcome.
type CellResult struct {
	Cell   CellSpec       `json:"cell"`
	Result *search.Result `json:"result"`
}

// Coordinator drives a campaign spec against a worker fleet. Correctness
// does not depend on the fleet: any shard any worker fails to return — dead
// process, timeout, version mismatch, garbage or oversized response, a
// result that fails search.Campaign.CheckShard — is reassigned to
// surviving workers and, when none survive, evaluated locally, with the
// degradation reason appended to the cell's Result.Notes. The merged bytes
// equal single-process search.Search on every cell regardless (EngineSteps
// excepted; see search.Campaign).
type Coordinator struct {
	Spec CampaignSpec
	// Workers are base URLs ("http://host:port"); empty runs every shard
	// locally (the in-process pool).
	Workers []string
	// Shards is the number of shards per generation (0: one per worker, or 1
	// when no workers). Empty shards are skipped, so any value is safe.
	Shards int
	// Timeout bounds one shard round-trip (0: DefaultShardTimeout).
	Timeout time.Duration
	// Progress, when non-nil, receives one event per merged generation.
	Progress func(ProgressEvent)
	// Client is the HTTP client for worker calls (nil: http.DefaultClient).
	Client *http.Client
	// Metrics, when non-nil, instruments the run: fleet health, dispatch
	// latency, and campaign accounting that reconciles exactly with the
	// merged Results. Purely observational — it never changes scheduling.
	Metrics *CoordinatorMetrics

	mu   sync.Mutex
	dead map[string]bool
}

// Run executes every cell of the campaign in order and returns the merged
// results. The first failing cell aborts the run — a candidate evaluation
// error is a campaign result in the same sense single-process Search's error
// is, not a fleet condition to retry.
func (c *Coordinator) Run() ([]CellResult, error) {
	if err := c.Spec.Validate(); err != nil {
		return nil, err
	}
	c.dead = make(map[string]bool)
	out := make([]CellResult, 0, len(c.Spec.Cells))
	for i := range c.Spec.Cells {
		res, err := c.runCell(i)
		if err != nil {
			return nil, fmt.Errorf("dist: cell %d (%s): %w", i, c.Spec.Cells[i].Label(), err)
		}
		out = append(out, CellResult{Cell: c.Spec.Cells[i], Result: res})
	}
	return out, nil
}

// runCell drives one cell's Campaign generation by generation.
func (c *Coordinator) runCell(cell int) (*search.Result, error) {
	opt, err := c.Spec.CellOptions(cell)
	if err != nil {
		return nil, err
	}
	campaign, err := search.NewCampaign(opt)
	if err != nil {
		return nil, err
	}
	var notes []string
	for !campaign.Done() {
		start := time.Now()
		var ev ProgressEvent
		if len(c.Workers) > 0 {
			ev, err = c.runGenerationSharded(cell, campaign, &notes)
		} else {
			ev, err = c.runGenerationLocal(campaign)
		}
		if err != nil {
			return nil, err
		}
		if c.Metrics != nil {
			c.Metrics.GenerationSeconds.ObserveDuration(time.Since(start))
		}
		ev.Cell = cell
		ev.CellName = c.Spec.Cells[cell].Label()
		ev.Evaluated = campaign.Evaluated()
		ev.Best = campaign.BestValue().String()
		if c.Progress != nil {
			c.Progress(ev)
		}
	}
	res, err := campaign.Result()
	if err != nil {
		return nil, err
	}
	if c.Metrics != nil {
		c.Metrics.Cells.Inc()
	}
	res.Notes = append(res.Notes, notes...)
	return res, nil
}

// runGenerationLocal evaluates the whole pending generation in-process —
// the no-workers path and the unshardable-campaign path.
func (c *Coordinator) runGenerationLocal(campaign *search.Campaign) (ProgressEvent, error) {
	n := campaign.NumPending()
	round := campaign.Round()
	sr, err := campaign.EvaluateRange(0, n)
	if err != nil {
		return ProgressEvent{}, err
	}
	if err := campaign.Absorb([]*search.ShardResult{sr}); err != nil {
		return ProgressEvent{}, err
	}
	if c.Metrics != nil {
		c.Metrics.absorbShards([]*search.ShardResult{sr})
		c.Metrics.ShardsLocal.Inc()
	}
	return ProgressEvent{Round: round, Candidates: n, Shards: 1, Local: 1}, nil
}

// runGenerationSharded partitions the pending generation into contiguous
// shards, dispatches them to the fleet concurrently, and merges. Shards a
// worker cannot return degrade to local evaluation; the reasons accumulate
// in notes.
func (c *Coordinator) runGenerationSharded(cell int, campaign *search.Campaign, notes *[]string) (ProgressEvent, error) {
	gen := campaign.Generation()
	n := len(gen.Candidates)
	round := campaign.Round()
	shards := c.Shards
	if shards <= 0 {
		shards = len(c.Workers)
	}
	if shards < 1 {
		shards = 1
	}

	type span struct{ lo, hi int }
	var spans []span
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		if lo < hi {
			spans = append(spans, span{lo, hi})
		}
	}

	results := make([]*search.ShardResult, len(spans))
	remote := make([]bool, len(spans))
	shardNotes := make([]string, len(spans))
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for si, sp := range spans {
		si, sp := si, sp
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr, wasRemote, note := c.evaluateShard(cell, campaign, gen, sp.lo, sp.hi, si)
			if sr == nil {
				// Local fallback failed too: a genuine evaluation-layer
				// problem, surfaced as the cell error.
				errs[si] = fmt.Errorf("shard [%d, %d): %s", sp.lo, sp.hi, note)
				return
			}
			results[si], remote[si], shardNotes[si] = sr, wasRemote, note
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ProgressEvent{}, err
		}
	}
	ev := ProgressEvent{Round: round, Candidates: n, Shards: len(spans)}
	for si := range spans {
		if remote[si] {
			ev.Remote++
		} else {
			ev.Local++
		}
		if shardNotes[si] != "" {
			*notes = append(*notes, shardNotes[si])
		}
	}
	if err := campaign.Absorb(results); err != nil {
		return ProgressEvent{}, err
	}
	if c.Metrics != nil {
		c.Metrics.absorbShards(results)
		c.Metrics.ShardsRemote.Add(uint64(ev.Remote))
		c.Metrics.ShardsLocal.Add(uint64(ev.Local))
	}
	return ev, nil
}

// evaluateShard obtains one shard's result: try the fleet (starting at a
// shard-dependent worker, reassigning on every transport failure), then fall
// back to coordinator-local evaluation. It returns the result, whether a
// worker produced it, and a degradation note ("" when none). A nil result
// means even local evaluation failed; the note then carries the error.
func (c *Coordinator) evaluateShard(cell int, campaign *search.Campaign, gen *search.Generation, lo, hi, shard int) (*search.ShardResult, bool, string) {
	var lastErr error
	tried := 0
	for attempt := 0; attempt < len(c.Workers); attempt++ {
		url := c.Workers[(shard+attempt)%len(c.Workers)]
		if c.isDead(url) {
			continue
		}
		tried++
		start := time.Now()
		sr, err := c.callShard(url, cell, gen, lo, hi)
		if c.Metrics != nil {
			c.Metrics.DispatchSeconds.ObserveDuration(time.Since(start))
		}
		if err == nil {
			// A malformed result is a worker failure like a lost connection.
			err = campaign.CheckShard(lo, hi, sr)
		}
		if err == nil {
			return sr, true, ""
		}
		if c.Metrics != nil {
			c.Metrics.Retries.Inc()
		}
		lastErr = fmt.Errorf("worker %s: %w", url, err)
		c.markDead(url)
	}
	if lastErr == nil {
		if tried == 0 {
			lastErr = fmt.Errorf("no surviving workers")
		}
	}
	if c.Metrics != nil {
		c.Metrics.LocalFallbacks.Inc()
	}
	sr, err := campaign.EvaluateRange(lo, hi)
	if err != nil {
		return nil, false, fmt.Sprintf("local fallback failed: %v (after %v)", err, lastErr)
	}
	note := fmt.Sprintf("round %d shard [%d, %d) degraded to coordinator-local evaluation: %v", gen.Round, lo, hi, lastErr)
	return sr, false, note
}

// callShard performs one worker round-trip.
func (c *Coordinator) callShard(url string, cell int, gen *search.Generation, lo, hi int) (*search.ShardResult, error) {
	body, err := json.Marshal(ShardRequest{
		Version:    ProtocolVersion,
		Spec:       c.Spec,
		Cell:       cell,
		Generation: gen,
		Lo:         lo,
		Hi:         hi,
	})
	if err != nil {
		return nil, err
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = DefaultShardTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+PathShard, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	httpRes, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpRes.Body.Close()
	var res ShardResponse
	if err := json.NewDecoder(http.MaxBytesReader(nil, httpRes.Body, maxShardBytes)).Decode(&res); err != nil {
		return nil, fmt.Errorf("decode response (HTTP %d): %w", httpRes.StatusCode, err)
	}
	if res.Error != "" {
		return nil, fmt.Errorf("HTTP %d: %s", httpRes.StatusCode, res.Error)
	}
	if httpRes.StatusCode != http.StatusOK || res.Result == nil {
		return nil, fmt.Errorf("HTTP %d with no result", httpRes.StatusCode)
	}
	if res.Version != ProtocolVersion {
		return nil, fmt.Errorf("worker speaks protocol %d, coordinator %d", res.Version, ProtocolVersion)
	}
	return res.Result, nil
}

func (c *Coordinator) isDead(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead[url]
}

func (c *Coordinator) markDead(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dead[url] {
		c.dead[url] = true
		if c.Metrics != nil {
			c.Metrics.DeadWorkers.Inc()
		}
	}
}

// Ping probes a worker's liveness and protocol version.
func Ping(client *http.Client, url string) error {
	if client == nil {
		client = http.DefaultClient
	}
	res, err := client.Get(url + PathPing)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	var ping PingResponse
	if err := json.NewDecoder(res.Body).Decode(&ping); err != nil {
		return fmt.Errorf("dist: decode ping from %s: %w", url, err)
	}
	if ping.Version != ProtocolVersion {
		return fmt.Errorf("dist: worker %s speaks protocol %d, coordinator %d", url, ping.Version, ProtocolVersion)
	}
	return nil
}
