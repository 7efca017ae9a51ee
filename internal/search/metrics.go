package search

import "gcs/internal/obs"

// Metrics is the search layer's instrument set: campaign-level counters a
// Campaign advances as it merges each generation. One Metrics value may span
// many campaigns (every cell of a `gcssearch run`, every pass of a
// benchmark); the counters are cumulative across them.
type Metrics struct {
	// Generations counts merged generations (Campaign.Step calls that
	// evaluated a pending generation).
	Generations *obs.Counter
	// Candidates counts candidate evaluations merged.
	Candidates *obs.Counter
	// EngineSteps counts engine events actually dispatched (trunk replays
	// included) — it reconciles exactly with Result.EngineSteps summed over
	// the campaigns feeding this Metrics.
	EngineSteps *obs.Counter
	// CandidateSteps counts what the same evaluations would have dispatched
	// re-simulated from scratch — reconciles with Result.CandidateSteps.
	CandidateSteps *obs.Counter
	// PrefixSavedSteps counts the engine events prefix caching saved:
	// CandidateSteps − EngineSteps, accumulated per merged generation.
	PrefixSavedSteps *obs.Counter
	// RecordSteps counts the engine events of the replays that record new
	// beam entries, which EngineSteps leaves out: an engine.Metrics attached
	// to the same searches counts EngineSteps + RecordSteps.
	RecordSteps *obs.Counter
}

// NewMetrics registers the search instrument set in r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Generations:      r.Counter("gcs_search_generations_total", "campaign generations merged"),
		Candidates:       r.Counter("gcs_search_candidates_total", "candidate evaluations merged"),
		EngineSteps:      r.Counter("gcs_search_engine_steps_total", "engine events dispatched by candidate evaluations"),
		CandidateSteps:   r.Counter("gcs_search_candidate_steps_total", "from-scratch-equivalent engine events of candidate evaluations"),
		PrefixSavedSteps: r.Counter("gcs_search_prefix_saved_steps_total", "engine events saved by prefix-cached evaluation"),
		RecordSteps:      r.Counter("gcs_search_record_steps_total", "engine events dispatched by the replays that record beam entries"),
	}
}
