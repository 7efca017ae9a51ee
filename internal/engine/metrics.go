package engine

import "gcs/internal/obs"

// Metrics is the engine's instrument set: pre-registered obs counters the
// hot path increments with single atomic adds — no allocation, no lock, no
// name lookup — so an instrumented engine stays inside the zero-alloc
// budgets pinned in alloc_test.go. One Metrics value may be shared by many
// engines (a worker's whole evaluation fleet aggregates into one registry);
// forks inherit their parent's Metrics.
type Metrics struct {
	// Steps counts dispatched events (one per Step/RunUntil dispatch).
	Steps *obs.Counter
	// Forks counts Engine.Fork calls.
	Forks *obs.Counter
	// ScheduleSwaps counts Engine.SwapSchedule calls — mid-run schedule
	// replacements that re-derived queued events onto a new rate schedule.
	ScheduleSwaps *obs.Counter
	// ClockCacheHits / ClockCacheMisses are never advanced: Execution
	// compiles every logical clock directly, with no memo. They stay
	// registered only because gcsperf still reads them.
	ClockCacheHits   *obs.Counter
	ClockCacheMisses *obs.Counter
	// FixedLaneRuns counts engines whose scale detection engaged the
	// fixed-point lane at construction; RatLaneRuns counts engines that
	// stayed on (or were forced onto) the rat lane. Forks are not runs and
	// count toward neither.
	FixedLaneRuns *obs.Counter
	RatLaneRuns   *obs.Counter
	// FixedFallbacks counts individual values a fixed-lane engine had to
	// compute in rational arithmetic because they fell off the tick grid
	// (an off-grid delay, reading, or timer inversion, including every
	// reading and inversion of a node swapped onto a schedule that does not
	// compile). It is the lane's only fallback: the engine never leaves the
	// lane. A high rate relative to Steps means the detected scale misses the
	// run's real grid.
	FixedFallbacks *obs.Counter
	// Dropped counts messages removed at send by the adversary chain's
	// fault layer (DropAdversary): they consume their sequence number but
	// are never assigned a delay or delivered.
	Dropped *obs.Counter
}

// NewMetrics registers the engine instrument set in r. Repeated calls with
// the same registry return counters backed by the same instruments.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Steps:            r.Counter("gcs_engine_steps_total", "engine events dispatched"),
		Forks:            r.Counter("gcs_engine_forks_total", "engine forks taken"),
		ScheduleSwaps:    r.Counter("gcs_engine_schedule_swaps_total", "mid-run schedule swaps re-deriving queued events"),
		ClockCacheHits:   r.Counter("gcs_engine_clock_cache_hits_total", "compiled logical-clock cache hits"),
		ClockCacheMisses: r.Counter("gcs_engine_clock_cache_misses_total", "compiled logical-clock cache misses"),
		FixedLaneRuns:    r.Counter("gcs_engine_fixed_lane_runs_total", "engines constructed on the fixed-point tick lane"),
		RatLaneRuns:      r.Counter("gcs_engine_rat_lane_runs_total", "engines constructed on the exact-rational lane"),
		FixedFallbacks:   r.Counter("gcs_engine_fixed_fallbacks_total", "off-grid values computed in rational arithmetic by fixed-lane engines"),
		Dropped:          r.Counter("gcs_engine_msgs_dropped_total", "messages dropped at send by the adversary's fault layer"),
	}
}

// WithMetrics attaches an instrument set to an Engine under construction.
// nil detaches (the default): an uninstrumented engine pays not even the
// atomic adds.
func WithMetrics(m *Metrics) Option { return func(e *Engine) { e.met = m } }

// Metrics returns the engine's instrument set (nil when uninstrumented).
func (e *Engine) Metrics() *Metrics { return e.met }
