package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("c_total", "a counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-56.05) > 1e-9 {
		t.Fatalf("sum = %g, want 56.05", got)
	}
	ms, ok := r.Snapshot().Get("h_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCum := []uint64{1, 3, 4, 5} // le=0.1, 1, 10, +Inf
	if len(ms.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(ms.Buckets), len(wantCum))
	}
	for i, b := range ms.Buckets {
		if b.CumulativeCount != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.CumulativeCount, wantCum[i])
		}
	}
	if !math.IsInf(ms.Buckets[3].UpperBound, 1) {
		t.Fatal("last bucket should be +Inf")
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps_total", "engine steps").Add(42)
	r.Histogram("lat_seconds", "latency", []float64{1}).Observe(0.5)
	text := r.Snapshot().Prometheus()
	for _, want := range []string{
		"# TYPE steps_total counter",
		"steps_total 42",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 0.5",
		"lat_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus rendering missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Add(7)
	r.Histogram("h", "help", []float64{1, 2}).Observe(1.5)
	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v\n%s", err, data)
	}
	h, ok := back.Get("h")
	if !ok || len(h.Buckets) != 3 {
		t.Fatalf("histogram lost in round trip: %+v", h)
	}
	if !math.IsInf(h.Buckets[2].UpperBound, 1) {
		t.Fatalf("+Inf bucket bound lost: %v", h.Buckets[2].UpperBound)
	}
}

// TestRegistryConcurrency hammers every instrument kind from many goroutines
// while snapshots are being taken — the -race gate for the whole package.
// Counter totals must be exact, and concurrently observed snapshots must be
// pointwise monotone in every counter.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan []Snapshot, 1)
	go func() {
		var snaps []Snapshot
		for {
			select {
			case <-stop:
				snapDone <- snaps
				return
			default:
				snaps = append(snaps, r.Snapshot())
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Registration races with registration and with use: every worker
			// asks for the same names.
			c := r.Counter("c_total", "shared counter")
			h := r.Histogram("h_seconds", "shared histogram", LatencyBuckets())
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%7) * 0.01)
			}
		}()
	}
	wg.Wait()
	close(stop)
	snaps := <-snapDone

	snap := r.Snapshot()
	c, _ := snap.Get("c_total")
	if want := float64(workers * perWorker); c.Value != want {
		t.Fatalf("counter = %g, want %g", c.Value, want)
	}
	h, _ := snap.Get("h_seconds")
	if h.Count != uint64(workers*perWorker) {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	var last float64 = -1
	for _, s := range snaps {
		if m, ok := s.Get("c_total"); ok {
			if m.Value < last {
				t.Fatalf("counter went backwards across snapshots: %g after %g", m.Value, last)
			}
			last = m.Value
		}
	}
}

func TestHubPublishSubscribe(t *testing.T) {
	hub := NewHub(16)
	ch, cancel := hub.Subscribe()
	defer cancel()
	hub.Publish(Event{Scope: "test", Name: "one", Data: 1})
	hub.Publish(Event{Scope: "test", Name: "two", Data: 2})
	for _, want := range []string{"one", "two"} {
		select {
		case ev := <-ch:
			if ev.Name != want {
				t.Fatalf("event = %q, want %q", ev.Name, want)
			}
			if ev.Time.IsZero() {
				t.Fatal("event not timestamped")
			}
		case <-time.After(time.Second):
			t.Fatalf("timed out waiting for %q", want)
		}
	}
	hub.Close()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed by hub Close")
	}
	// Publishing after close is a silent no-op.
	hub.Publish(Event{Name: "late"})
}

func TestHubSlowSubscriberDrops(t *testing.T) {
	hub := NewHub(1)
	_, cancel := hub.Subscribe()
	defer cancel()
	hub.Publish(Event{Name: "a"})
	hub.Publish(Event{Name: "b"}) // buffer full: dropped, not blocked
	if hub.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", hub.Dropped())
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Add(3)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "c_total 3") {
		t.Fatalf("prometheus body missing counter:\n%s", body)
	}

	res2, err := srv.Client().Get(srv.URL + "/?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(res2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if m, ok := snap.Get("c_total"); !ok || m.Value != 3 {
		t.Fatalf("json body wrong: %+v ok=%v", m, ok)
	}
}
