package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
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

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps_total", "engine steps").Add(42)
	r.Counter("forks_total", "").Inc()
	text := r.Snapshot().Prometheus()
	want := "# HELP steps_total engine steps\n# TYPE steps_total counter\nsteps_total 42\n" +
		"# TYPE forks_total counter\nforks_total 1\n"
	if text != want {
		t.Fatalf("prometheus rendering:\n%s\nwant:\n%s", text, want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help").Add(7)
	r.Counter("zero_total", "help")
	snap := r.Snapshot()
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Fatalf("snapshot changed in round trip:\n%+v\n%+v", back, snap)
	}
}

// TestRegistryConcurrency hammers a counter from many goroutines while
// snapshots are being taken — the -race gate for the whole package.
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
			for i := 0; i < perWorker; i++ {
				c.Inc()
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
