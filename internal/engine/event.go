package engine

import (
	"gcs/internal/rat"
	"gcs/internal/trace"
)

// event is a scheduled occurrence. Ordering must be a deterministic function
// of node-visible data wherever possible so that the per-node order is
// invariant under the monotone time remappings used by the lower-bound
// constructions: (time, kind, node, peer, msgSeq/timerID, seq).
type event struct {
	time     rat.Rat
	kind     trace.Kind
	node     int // destination node
	from     int // Recv only
	msgSeq   uint64
	timerID  int
	payload  Message
	payStr   string  // Recv only: canonical payload string, cached at Send
	hasStr   bool    // payStr is valid (it may legitimately be "")
	sendReal rat.Rat // Recv only: real send time, for the delivery record
	delay    rat.Rat // Recv only: adversary-chosen delay
	seq      uint64  // global scheduling sequence, final tie-breaker

	// Fixed-lane key: time as exact ticks of 1/engine.scale, valid iff
	// tickOK. Two tickOK events compare by integer ticks; any other pair
	// compares by exact rational time — the orders agree because a tick
	// count represents its time exactly.
	tick   int64
	tickOK bool
	// Cached hardware reading of the destination node at `time`, computed
	// when the event was scheduled: dispatch never re-evaluates the clock,
	// and forks inherit queued readings instead of re-deriving them.
	hw rat.Rat
	// hwTarget marks hw as the event's source of truth rather than a cache:
	// a timer fires when the node's hardware clock reads hw, and time/tick
	// are merely that target pushed through the node's current rate
	// schedule. SwapSchedule re-derives time and tick from hw for such
	// events; for time-authoritative events (init, recv — a delivery's real
	// time is send + delay regardless of the recipient's clock) it instead
	// re-derives the cached reading from the unchanged time.
	hwTarget bool
}

// kindRank orders simultaneous events: inits, then message deliveries, then
// timers.
func kindRank(k trace.Kind) int {
	switch k {
	case trace.KindInit:
		return 0
	case trace.KindRecv:
		return 1
	case trace.KindTimer:
		return 2
	default:
		return 3
	}
}

// less is the deterministic total order on events. The seq tie-breaker is
// unique per event, so the order is strict and total — the pop order of any
// correct heap over it is the same, independent of internal heap layout.
func (e *event) less(o *event) bool {
	if e.tickOK && o.tickOK {
		// Same grid, exact values: integer comparison is the rational
		// comparison. Equal ticks mean equal times — fall through to the
		// deterministic tie-breakers.
		if e.tick != o.tick {
			return e.tick < o.tick
		}
	} else if c := e.time.Cmp(o.time); c != 0 {
		return c < 0
	}
	if a, b := kindRank(e.kind), kindRank(o.kind); a != b {
		return a < b
	}
	if e.node != o.node {
		return e.node < o.node
	}
	if e.from != o.from {
		return e.from < o.from
	}
	if e.msgSeq != o.msgSeq {
		return e.msgSeq < o.msgSeq
	}
	if e.timerID != o.timerID {
		return e.timerID < o.timerID
	}
	return e.seq < o.seq
}

// eventQueue is a slab-backed binary min-heap. Events live in a per-engine
// slab and are addressed by index: the heap itself is a flat []int32, so
// sift operations move 4-byte indices instead of chasing per-event pointers,
// dispatched slots return to a free list instead of the garbage collector
// (steady-state stepping allocates no events), and Fork clones the whole
// queue with three bulk copies instead of one allocation per pending event.
type eventQueue struct {
	slab []event // stable storage, addressed by index
	heap []int32 // heap order over slab indices
	free []int32 // recycled slab slots
}

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return len(q.heap) }

// alloc returns a free slab slot, growing the slab only when the free list
// is empty. The returned slot's previous contents are undefined; the caller
// must overwrite it fully before push.
func (q *eventQueue) alloc() int32 {
	if n := len(q.free); n > 0 {
		idx := q.free[n-1]
		q.free = q.free[:n-1]
		return idx
	}
	q.slab = append(q.slab, event{})
	return int32(len(q.slab) - 1)
}

// release returns a slot to the free list, clearing it so the payload
// reference does not pin delivered messages in memory.
func (q *eventQueue) release(idx int32) {
	q.slab[idx] = event{}
	q.free = append(q.free, idx)
}

// push inserts slot idx into the heap order.
func (q *eventQueue) push(idx int32) {
	q.heap = append(q.heap, idx)
	q.up(len(q.heap) - 1)
}

// top returns the slab index of the minimum event. The heap must be
// non-empty.
func (q *eventQueue) top() int32 { return q.heap[0] }

// pop removes and returns the slab index of the minimum event. The caller
// owns the slot and must release it once done.
func (q *eventQueue) pop() int32 {
	idx := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return idx
}

func (q *eventQueue) less(a, b int32) bool {
	return q.slab[a].less(&q.slab[b])
}

func (q *eventQueue) up(i int) {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	h := q.heap
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && q.less(h[right], h[left]) {
			min = right
		}
		if !q.less(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// cloneFrom replaces q's contents with a bulk copy of src: three slice
// copies, independent of the number of pending events' contents. Payload
// references are shared — the Message contract demands value-determined,
// never-mutated payloads.
func (q *eventQueue) cloneFrom(src *eventQueue) {
	q.slab = append(q.slab[:0], src.slab...)
	q.heap = append(q.heap[:0], src.heap...)
	q.free = append(q.free[:0], src.free...)
}
