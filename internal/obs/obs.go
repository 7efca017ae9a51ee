// Package obs is the repository's dependency-free observability substrate:
// a metrics registry of atomic counters and fixed-bucket histograms, with
// snapshot, Prometheus-text, and JSON renderers, plus a structured run-trace
// event API (see trace.go) and an HTTP exposure layer (see http.go).
//
// Design constraints, in priority order:
//
//   - Hot-path safety. Counter.Add/Inc and Histogram.Observe are single
//     atomic operations on pre-registered instruments — no allocation, no
//     lock, no map lookup — so the engine's per-step instrumentation can
//     stay inside the zero-alloc budgets pinned in engine/alloc_test.go.
//   - Concurrent scraping. Snapshot reads every instrument atomically while
//     writers keep writing: a /v1/metrics scrape mid-campaign observes
//     monotone counters, never a torn state.
//   - No dependencies. The renderers speak the Prometheus text exposition
//     format directly; nothing outside the standard library is imported.
//
// Instruments are registered once (Registry.Counter et al. are idempotent
// per name) and then shared by reference. Registration is cheap but locked;
// do it at construction time, not per event.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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

// Histogram is a fixed-bucket distribution: observations land in the first
// bucket whose upper bound is >= the value, Prometheus-style (cumulative on
// render, per-bucket internally), with a +Inf overflow bucket, a running
// count, and a running sum. The bucket layout is fixed at construction —
// Observe never allocates or locks.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, updated by CAS
}

// newHistogram builds a histogram over the given upper bounds (sorted
// ascending; the +Inf bucket is implicit).
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds — the Prometheus convention
// for latency histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LatencyBuckets is the standard bucket layout for request/shard latencies
// in seconds: 1ms to ~2min, doubling.
func LatencyBuckets() []float64 {
	return ExpBuckets(0.001, 2, 18)
}

// ExpBuckets returns n exponentially growing upper bounds starting at start
// and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Instrument kinds.
const (
	KindCounter   = "counter"
	KindHistogram = "histogram"
)

// instrument is one registered metric.
type instrument struct {
	name string
	help string
	kind string

	counter *Counter
	hist    *Histogram
}

// Registry is a named set of instruments. Registration is idempotent per
// name: asking for an existing name returns the existing instrument (a kind
// mismatch panics — that is a programming error, not a runtime condition).
type Registry struct {
	mu     sync.Mutex
	order  []*instrument
	byName map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*instrument)}
}

// lookup returns the instrument registered under name, creating it with
// build when absent.
func (r *Registry) lookup(name, help, kind string, build func() *instrument) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, in.kind, kind))
		}
		return in
	}
	in := build()
	in.name, in.help, in.kind = name, help, kind
	r.byName[name] = in
	r.order = append(r.order, in)
	return in
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, KindCounter, func() *instrument {
		return &instrument{counter: &Counter{}}
	}).counter
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if needed (an existing histogram keeps its
// original layout).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.lookup(name, help, KindHistogram, func() *instrument {
		return &instrument{hist: newHistogram(bounds)}
	}).hist
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; +Inf renders as the
	// JSON string "+Inf".
	UpperBound float64 `json:"upper_bound"`
	// CumulativeCount counts observations <= UpperBound.
	CumulativeCount uint64 `json:"cumulative_count"`
}

// MetricSnapshot is one instrument's state at snapshot time.
type MetricSnapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Kind string `json:"kind"`
	// Value carries a counter reading.
	Value float64 `json:"value,omitempty"`
	// Count, Sum, and Buckets carry histogram readings.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time reading of a whole registry.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot reads every instrument. Counters are read atomically, so any two
// snapshots of the same registry have pointwise monotone counter values;
// histogram count/sum/buckets are each atomic but not mutually consistent
// under concurrent writes (a scrape may see a bucket increment before the
// matching count increment) — cumulative bucket counts are clamped to Count
// so renderings stay well-formed.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	order := append([]*instrument(nil), r.order...)
	r.mu.Unlock()
	s := Snapshot{Metrics: make([]MetricSnapshot, 0, len(order))}
	for _, in := range order {
		ms := MetricSnapshot{Name: in.name, Help: in.help, Kind: in.kind}
		switch in.kind {
		case KindCounter:
			ms.Value = float64(in.counter.Value())
		case KindHistogram:
			h := in.hist
			ms.Count = h.Count()
			ms.Sum = h.Sum()
			var cum uint64
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				if cum > ms.Count {
					cum = ms.Count
				}
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				ms.Buckets = append(ms.Buckets, Bucket{UpperBound: ub, CumulativeCount: cum})
			}
		}
		s.Metrics = append(s.Metrics, ms)
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
		switch m.Kind {
		case KindCounter:
			fmt.Fprintf(&b, "%s %s\n", m.Name, formatFloat(m.Value))
		case KindHistogram:
			for _, bk := range m.Buckets {
				le := "+Inf"
				if !math.IsInf(bk.UpperBound, 1) {
					le = formatFloat(bk.UpperBound)
				}
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.Name, le, bk.CumulativeCount)
			}
			fmt.Fprintf(&b, "%s_sum %s\n", m.Name, formatFloat(m.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.Name, m.Count)
		}
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// MarshalJSON renders +Inf bucket bounds as the string "+Inf" — the one
// float64 value encoding/json cannot represent.
func (b Bucket) MarshalJSON() ([]byte, error) {
	ub := "\"+Inf\""
	if !math.IsInf(b.UpperBound, 1) {
		ub = formatFloat(b.UpperBound)
	}
	return []byte(fmt.Sprintf(`{"upper_bound":%s,"cumulative_count":%d}`, ub, b.CumulativeCount)), nil
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		UpperBound      json.RawMessage `json:"upper_bound"`
		CumulativeCount uint64          `json:"cumulative_count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.CumulativeCount = raw.CumulativeCount
	if string(raw.UpperBound) == `"+Inf"` {
		b.UpperBound = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.UpperBound, &b.UpperBound)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
