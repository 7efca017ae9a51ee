package obs

import (
	"sync"
	"time"
)

// Event is one structured run-trace event: a timestamped, named occurrence
// with an arbitrary JSON-marshalable payload. The Scope/Name pair is the
// event's identity ("run"/"generation", "run"/"result", ...); Data carries
// the layer-specific record (a `gcssearch run` progress event, its final
// result summary).
type Event struct {
	Time  time.Time `json:"time"`
	Scope string    `json:"scope"`
	Name  string    `json:"name"`
	Data  any       `json:"data,omitempty"`
}

// Hub fans run-trace events out to any number of subscribers — the seam
// between a producer that must never block (a campaign's generation loop)
// and consumers of unknown speed (HTTP streaming clients). Publish is
// non-blocking: a subscriber whose buffer is full loses that event, and the
// loss is counted rather than silently absorbed. Close terminates every
// subscription; a closed hub drops all further publishes.
type Hub struct {
	mu      sync.Mutex
	subs    map[int]chan Event
	next    int
	closed  bool
	buffer  int
	dropped Counter
}

// NewHub returns a hub whose subscribers buffer up to buffer events
// (minimum 1).
func NewHub(buffer int) *Hub {
	if buffer < 1 {
		buffer = 1
	}
	return &Hub{subs: make(map[int]chan Event), buffer: buffer}
}

// Publish delivers ev to every live subscriber without blocking. Timeless
// events are stamped with the current wall clock.
func (h *Hub) Publish(ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for _, ch := range h.subs {
		select {
		case ch <- ev:
		default:
			h.dropped.Inc()
		}
	}
}

// Subscribe attaches a new subscriber and returns its event channel plus a
// cancel function. The channel is closed by cancel or by Hub.Close; events
// published before Subscribe are not replayed. Subscribing to a closed hub
// returns an already-closed channel.
func (h *Hub) Subscribe() (<-chan Event, func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := make(chan Event, h.buffer)
	if h.closed {
		close(ch)
		return ch, func() {}
	}
	id := h.next
	h.next++
	h.subs[id] = ch
	cancel := func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if c, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(c)
		}
	}
	return ch, cancel
}

// Close terminates every subscription and rejects further publishes.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
}

// Dropped returns the number of events lost to slow subscribers.
func (h *Hub) Dropped() uint64 { return h.dropped.Value() }
