package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Paths the observability layer serves (`gcssearch run -serve`).
const (
	// PathMetrics serves the registry snapshot: Prometheus text by default,
	// JSON with ?format=json.
	PathMetrics = "/v1/metrics"
	// PathEvents streams run-trace events as JSON lines until the client
	// disconnects.
	PathEvents = "/v1/events"
)

// Handler serves r's snapshot on GET: the Prometheus text exposition format
// by default, the JSON snapshot with ?format=json.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(http.StatusMethodNotAllowed)
			_ = json.NewEncoder(rw).Encode(map[string]string{"error": "metrics is GET"})
			return
		}
		snap := r.Snapshot()
		if req.URL.Query().Get("format") == "json" {
			data, err := snap.JSON()
			if err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
				return
			}
			rw.Header().Set("Content-Type", "application/json")
			_, _ = rw.Write(append(data, '\n'))
			return
		}
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = rw.Write([]byte(snap.Prometheus()))
	})
}

// StreamHandler serves hub subscriptions as JSON lines: each published
// event is one line, flushed immediately, until the client disconnects or
// the hub closes. Events published before the client attached are not
// replayed — attach first, then trigger the run.
func StreamHandler(hub *Hub) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(rw, "events is GET", http.StatusMethodNotAllowed)
			return
		}
		ch, cancel := hub.Subscribe()
		defer cancel()
		rw.Header().Set("Content-Type", "application/x-ndjson")
		rw.Header().Set("Cache-Control", "no-store")
		rw.WriteHeader(http.StatusOK)
		flusher, _ := rw.(http.Flusher)
		if flusher != nil {
			flusher.Flush()
		}
		enc := json.NewEncoder(rw)
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					return
				}
				if err := enc.Encode(ev); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			case <-req.Context().Done():
				return
			}
		}
	})
}

// AttachPprof mounts the runtime profiling endpoints under /debug/pprof on
// mux — the opt-in half of the observability surface (CPU and heap profiles
// expose more than counters do; serve them only behind an explicit -debug
// flag).
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
