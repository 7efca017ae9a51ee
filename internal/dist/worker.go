package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gcs/internal/obs"
	"gcs/internal/search"
)

// maxShardBytes caps a shard request body, and the response body the
// coordinator reads back; the example campaign's largest request, a
// 40-candidate generation of its d=64 cell, is 573 KB.
const maxShardBytes = 64 << 20

// Worker serves shard evaluations. It is stateless between requests: every
// ShardRequest carries the full campaign spec and wire generation, so a
// fleet of workers needs no membership protocol — start any number, point
// the coordinator at them, kill them freely. (The metrics registry is
// operational state, not protocol state: it observes the worker, it never
// changes what the worker computes.)
type Worker struct {
	// Threads bounds the local evaluation pool for each shard (0: the
	// request's spec setting, or GOMAXPROCS). Worker capacity is a local
	// concern: it changes evaluation speed, never evaluation bytes.
	Threads int
	// Registry, when non-nil, instruments the worker: Handler registers the
	// worker instrument set in it (plus the engine instruments the
	// evaluations advance live) and serves its snapshot on GET /v1/metrics.
	Registry *obs.Registry
	// Debug mounts the /debug/pprof profiling endpoints on the handler —
	// opt-in, profiles expose more than counters do.
	Debug bool

	metOnce sync.Once
	met     *WorkerMetrics
}

// Metrics returns the worker's instrument set, registering it on first use
// (nil when the worker has no Registry).
func (w *Worker) Metrics() *WorkerMetrics {
	if w.Registry == nil {
		return nil
	}
	w.metOnce.Do(func() {
		w.met = NewWorkerMetrics(w.Registry)
	})
	return w.met
}

// Handler returns the worker's HTTP handler: POST PathShard evaluates a
// shard, GET PathPing probes liveness and version, GET obs.PathMetrics
// serves the metrics snapshot (when instrumented), and /debug/pprof is
// mounted when Debug is set. Unknown paths answer with the versioned JSON
// error shape the /v1 protocol speaks everywhere else, not the default Go
// 404 page.
func (w *Worker) Handler() http.Handler {
	met := w.Metrics()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(rw http.ResponseWriter, r *http.Request) {
		if met != nil {
			met.Requests.Inc()
			met.UnknownPaths.Inc()
		}
		writeJSON(rw, http.StatusNotFound, ShardResponse{
			Version: ProtocolVersion, Error: "unknown path",
		})
	})
	mux.HandleFunc(PathPing, func(rw http.ResponseWriter, r *http.Request) {
		if met != nil {
			met.Requests.Inc()
		}
		if r.Method != http.MethodGet {
			http.Error(rw, "ping is GET", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(rw, http.StatusOK, PingResponse{Version: ProtocolVersion, Status: "ok"})
	})
	mux.HandleFunc(PathShard, func(rw http.ResponseWriter, r *http.Request) {
		if met != nil {
			met.Requests.Inc()
		}
		if r.Method != http.MethodPost {
			http.Error(rw, "shard is POST", http.StatusMethodNotAllowed)
			return
		}
		var req ShardRequest
		if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxShardBytes)).Decode(&req); err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(rw, status, ShardResponse{
				Version: ProtocolVersion, Error: fmt.Sprintf("decode request: %v", err),
			})
			return
		}
		if req.Version != ProtocolVersion {
			writeJSON(rw, http.StatusBadRequest, ShardResponse{
				Version: ProtocolVersion,
				Error:   fmt.Sprintf("protocol version %d, worker speaks %d", req.Version, ProtocolVersion),
			})
			return
		}
		if err := req.Spec.Validate(); err != nil {
			writeJSON(rw, http.StatusBadRequest, ShardResponse{
				Version: ProtocolVersion, Error: err.Error(),
			})
			return
		}
		start := time.Now()
		result, err := w.evaluate(&req)
		if met != nil {
			met.ShardSeconds.ObserveDuration(time.Since(start))
			if err != nil {
				met.ShardErrors.Inc()
			}
			met.absorb(result)
		}
		if err != nil {
			writeJSON(rw, http.StatusUnprocessableEntity, ShardResponse{
				Version: ProtocolVersion, Error: err.Error(),
			})
			return
		}
		writeJSON(rw, http.StatusOK, ShardResponse{Version: ProtocolVersion, Result: result})
	})
	if w.Registry != nil {
		mux.Handle(obs.PathMetrics, obs.Handler(w.Registry))
	}
	if w.Debug {
		obs.AttachPprof(mux)
	}
	return mux
}

// evaluate rebuilds the shard's search options from the spec and runs the
// local prefix-cached evaluator on the requested range.
func (w *Worker) evaluate(req *ShardRequest) (*search.ShardResult, error) {
	opt, err := req.Spec.CellOptions(req.Cell)
	if err != nil {
		return nil, err
	}
	if w.Threads > 0 {
		opt.Workers = w.Threads
	}
	if met := w.Metrics(); met != nil {
		// Live instrumentation: the engines this evaluation constructs
		// advance the worker's engine step counters while the shard runs.
		// (opt.Metrics stays nil — campaign-absorb counters belong to the
		// coordinator, the side that actually calls Absorb.)
		opt.EngineMetrics = met.Engine
	}
	return search.EvaluateShard(opt, req.Generation, req.Lo, req.Hi)
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}
