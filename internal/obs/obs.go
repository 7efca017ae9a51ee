// Package obs is the repository's dependency-free observability substrate:
// a metrics registry of atomic counters, with snapshot, Prometheus-text, and
// JSON renderers, plus a structured run-trace event API (see trace.go) and
// an HTTP exposure layer (see http.go).
//
// Design constraints, in priority order:
//
//   - Hot-path safety. Counter.Add/Inc are single atomic operations on
//     pre-registered instruments — no allocation, no lock, no map lookup —
//     so the engine's per-step instrumentation can stay inside the
//     zero-alloc budgets pinned in engine/alloc_test.go.
//   - Concurrent scraping. Snapshot reads every instrument atomically while
//     writers keep writing: a /v1/metrics scrape mid-campaign observes
//     monotone counters, never a torn state.
//   - No dependencies. The renderers speak the Prometheus text exposition
//     format directly; nothing outside the standard library is imported.
//
// Instruments are registered once (Registry.Counter is idempotent per name)
// and then shared by reference. Registration is cheap but locked; do it at
// construction time, not per event.
package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// KindCounter is the kind every instrument has: the Prometheus TYPE of a
// monotonically increasing count.
const KindCounter = "counter"

// instrument is one registered metric.
type instrument struct {
	name    string
	help    string
	counter *Counter
}

// Registry is a named set of instruments. Registration is idempotent per
// name: asking for an existing name returns the existing instrument.
type Registry struct {
	mu     sync.Mutex
	order  []*instrument
	byName map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*instrument)}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		return in.counter
	}
	in := &instrument{name: name, help: help, counter: &Counter{}}
	r.byName[name] = in
	r.order = append(r.order, in)
	return in.counter
}

// MetricSnapshot is one instrument's state at snapshot time.
type MetricSnapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Kind string `json:"kind"`
	// Value carries the counter reading.
	Value float64 `json:"value,omitempty"`
}

// Snapshot is a point-in-time reading of a whole registry.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot reads every instrument. Counters are read atomically, so any two
// snapshots of the same registry have pointwise monotone counter values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	order := append([]*instrument(nil), r.order...)
	r.mu.Unlock()
	s := Snapshot{Metrics: make([]MetricSnapshot, 0, len(order))}
	for _, in := range order {
		s.Metrics = append(s.Metrics, MetricSnapshot{
			Name:  in.name,
			Help:  in.help,
			Kind:  KindCounter,
			Value: float64(in.counter.Value()),
		})
	}
	return s
}

// Get returns the snapshot of one metric by name, if present.
func (s Snapshot) Get(name string) (MetricSnapshot, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

// Prometheus renders the snapshot in the Prometheus text exposition format.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	for _, m := range s.Metrics {
		if m.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.Name, m.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.Name, m.Kind)
		fmt.Fprintf(&b, "%s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64))
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
