// Package sim is a deterministic discrete-event simulator for distributed
// real-time systems under the synchronization protocols of Sun & Liu
// (ICDCS 1996): DS, PM, MPM, and RG. Each processor schedules its ready
// subtask instances by preemptive (or, for link processors, non-preemptive)
// fixed-priority dispatch; protocols decide when instances of non-first
// subtasks are released.
//
// Simulated time is integer ticks (model.Time); all state transitions are
// exact, so a run is reproducible bit-for-bit.
package sim

import "rtsync/internal/model"

// Event kinds order simultaneous events deterministically: completions are
// settled before timers, timers before releases. Correctness does not hinge
// on this order — the engine re-checks remaining work on every touch — but
// it makes traces stable and easy to reason about. Only timers and releases
// enter the event heap; kindCompletion events live in the engine's
// per-processor tentative slots, which is why a slot wins every tie with the
// heap at the same instant.
const (
	kindCompletion = iota
	kindTimer
	kindRelease
)

// Event ops discriminate what a popped event does. The op is independent of
// the kind (which only orders the heap): protocol-scheduled releases and the
// engine's periodic first-release generator both sort as kindRelease, for
// example, so refactoring the dispatch never perturbs event order.
const (
	// opCompletion is a tentative job completion: a is the processor,
	// inst the dispatch generation that armed it.
	opCompletion = iota
	// opTimer invokes a registered protocol timer: a is the TimerID, b
	// the dense subtask index, inst the instance.
	opTimer
	// opRelease releases instance inst of the subtask with dense index b.
	opRelease
	// opFirstRelease releases instance inst of task b's first subtask and
	// chains the next periodic release.
	opFirstRelease
	// opSegment is a tentative critical-section boundary of the running
	// job on processor a (the next acquire or release falling due): like
	// opCompletion it carries the arming dispatch generation in inst and
	// is dropped as stale when the processor redispatched since. It sorts
	// as kindCompletion, so boundary work settles before timers and
	// releases at the same instant.
	opSegment
)

// event is one scheduled occurrence, a plain pointer-free value: the heap
// stores events by value, so pushing and popping allocate nothing in the
// steady state, and the heap holds nothing the garbage collector must scan.
type event struct {
	at   model.Time
	seq  int64
	inst int64
	kind int8
	op   int8
	a    int32
	b    int32
}

// before orders events by (at, kind, seq): time first, then the kind rank,
// then insertion order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled binary min-heap of event values: no per-event
// allocation, no interface boxing, and the backing array is reused across
// Engine.Reset. It is the engine's future-event set for timers and
// releases; Run merges it with the tentative slots.
type eventHeap struct {
	items []event
}

func (q *eventHeap) len() int { return len(q.items) }

// top returns the minimum event without removing it; the caller must ensure
// the heap is non-empty.
func (q *eventHeap) top() *event { return &q.items[0] }

func (q *eventHeap) push(ev event) {
	q.items = append(q.items, ev)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.items[i].before(&q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *eventHeap) pop() event {
	top := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items = q.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.items[l].before(&q.items[smallest]) {
			smallest = l
		}
		if r < n && q.items[r].before(&q.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top
}

// reset empties the queue, keeping its capacity for reuse.
func (q *eventHeap) reset() { q.items = q.items[:0] }
