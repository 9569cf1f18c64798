package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rtsync/internal/model"
)

// randomEvents draws an insertion sequence over a narrow time range, so
// (at, kind) ties are common and only seq separates them.
func randomEvents(rng *rand.Rand) []event {
	evs := make([]event, 50+rng.Intn(100))
	for i := range evs {
		evs[i] = event{at: model.Time(rng.Intn(20)), kind: int8(rng.Intn(3)), seq: int64(i)}
	}
	return evs
}

// inEventOrder reports whether evs is sorted by (at, kind, seq).
func inEventOrder(evs []event) bool {
	for i := 1; i < len(evs); i++ {
		if evs[i].before(&evs[i-1]) {
			return false
		}
	}
	return true
}

// TestEventHeapOrderingProperty: the reference heap pops every event in
// (at, kind, seq) order, whatever the insertion order.
func TestEventHeapOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := randomEvents(rand.New(rand.NewSource(seed)))
		var q eventHeap
		for _, ev := range in {
			q.push(ev)
		}
		var out []event
		for q.len() > 0 {
			out = append(out, q.pop())
		}
		return len(out) == len(in) && inEventOrder(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// laneTop is the top priority the ready-queue tests rebase the lanes at;
// every job they draw has a priority in [0, laneTop).
const laneTop = 8

// randomReadyJobs draws fixed-priority jobs with many priority and
// (task, instance) ties.
func randomReadyJobs(rng *rand.Rand) []Job {
	jobs := make([]Job, 20+rng.Intn(50))
	for i := range jobs {
		jobs[i] = Job{
			ID:       model.SubtaskID{Task: rng.Intn(3), Sub: 0},
			Instance: int64(rng.Intn(10)),
			base:     model.Priority(rng.Intn(5)),
			deadline: model.TimeInfinity,
		}
	}
	return jobs
}

// inDispatchOrder reports whether jobs pop in non-increasing active
// priority with the deterministic (task, sub, instance) tie-break.
func inDispatchOrder(jobs []*Job) bool {
	for i := 1; i < len(jobs); i++ {
		prev, j := jobs[i-1], jobs[i]
		if j.active() > prev.active() || j.active() == prev.active() && jobTieLess(j, prev) {
			return false
		}
	}
	return true
}

// TestReadyQueueFixedPriorityProperty: the ready heap dispatches in
// non-increasing active priority, with the deterministic tie-break.
func TestReadyQueueFixedPriorityProperty(t *testing.T) {
	f := func(seed int64) bool {
		jobs := randomReadyJobs(rand.New(rand.NewSource(seed)))
		var q readyHeap
		q.reset(false)
		for i := range jobs {
			q.push(&jobs[i])
		}
		var out []*Job
		for q.len() > 0 {
			out = append(out, q.pop())
		}
		return len(out) == len(jobs) && inDispatchOrder(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReadyLanesFixedPriorityProperty: the bitmap lanes dispatch in the
// same order the heap property above requires.
func TestReadyLanesFixedPriorityProperty(t *testing.T) {
	f := func(seed int64) bool {
		jobs := randomReadyJobs(rand.New(rand.NewSource(seed)))
		var q priorityLanes
		q.reset(laneTop)
		for i := range jobs {
			q.push(&jobs[i])
		}
		var out []*Job
		for q.count > 0 {
			out = append(out, q.pop())
		}
		return len(out) == len(jobs) && inDispatchOrder(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReadyLanesMatchHeap: lanes and heap pop identical jobs under random
// push/pop interleavings, including duplicate priorities and ties.
func TestReadyLanesMatchHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var lanes priorityLanes
		lanes.reset(laneTop)
		var heap readyHeap
		heap.reset(false)
		for i := 0; i < 300; i++ {
			if heap.len() == 0 || rng.Intn(3) > 0 {
				j := &Job{
					ID:       model.SubtaskID{Task: rng.Intn(4), Sub: rng.Intn(3)},
					Instance: int64(rng.Intn(6)),
					base:     model.Priority(rng.Intn(laneTop)),
					eff:      model.Priority(rng.Intn(laneTop)),
					started:  rng.Intn(2) == 0,
					deadline: model.TimeInfinity,
				}
				if j.eff < j.base {
					j.base, j.eff = j.eff, j.base
				}
				// The lanes thread jobs intrusively, so the heap gets
				// a copy and the two are compared by value.
				cp := *j
				lanes.push(j)
				heap.push(&cp)
				continue
			}
			if lanes.peek().Key() != heap.peek().Key() {
				return false
			}
			a, b := lanes.pop(), heap.pop()
			if a.Key() != b.Key() || a.active() != b.active() {
				return false
			}
		}
		return lanes.count == heap.len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReadyQueueEDFProperty: EDF always selects the heap, which then pops
// by non-decreasing absolute deadline.
func TestReadyQueueEDFProperty(t *testing.T) {
	if (readyParams{edf: true, lo: 0, hi: laneTop}).lanes() {
		t.Fatal("EDF must select the heap")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q readyHeap
		q.reset(true)
		n := 20 + rng.Intn(50)
		var deadlines []model.Time
		for i := 0; i < n; i++ {
			d := model.Time(rng.Intn(100))
			deadlines = append(deadlines, d)
			q.push(&Job{
				ID:       model.SubtaskID{Task: rng.Intn(3), Sub: 0},
				Instance: int64(i),
				deadline: d,
			})
		}
		sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })
		for k := 0; q.len() > 0; k++ {
			if q.pop().deadline != deadlines[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReadyQueuePeekMatchesPop: peek never disagrees with the next pop, in
// either implementation.
func TestReadyQueuePeekMatchesPop(t *testing.T) {
	var lanes priorityLanes
	lanes.reset(laneTop)
	var heap readyHeap
	heap.reset(false)
	if lanes.peek() != nil || heap.peek() != nil {
		t.Fatal("peek on an empty queue should be nil")
	}
	rng := rand.New(rand.NewSource(12))
	laneJobs, heapJobs := make([]Job, 100), make([]Job, 100)
	for i := range laneJobs {
		laneJobs[i] = Job{
			ID:       model.SubtaskID{Task: rng.Intn(3), Sub: 0},
			Instance: int64(i),
			base:     model.Priority(rng.Intn(4)),
			deadline: model.TimeInfinity,
		}
		heapJobs[i] = laneJobs[i]
		lanes.push(&laneJobs[i])
		heap.push(&heapJobs[i])
	}
	if lanes.count != 100 || heap.len() != 100 {
		t.Fatalf("len = %d (lanes), %d (heap), want 100", lanes.count, heap.len())
	}
	for lanes.count > 0 {
		if want := lanes.peek(); lanes.pop() != want {
			t.Fatal("lanes: peek disagreed with pop")
		}
	}
	for heap.len() > 0 {
		if want := heap.peek(); heap.pop() != want {
			t.Fatal("heap: peek disagreed with pop")
		}
	}
}

// TestReadyQueueWideRangeFallsBack: a priority span past the bitmap's 64
// lanes must select the heap, not truncate.
func TestReadyQueueWideRangeFallsBack(t *testing.T) {
	q := new(readyQueue)
	q.reset(readyParams{lo: 0, hi: 1000})
	if q.useLanes {
		t.Fatal("range 0..1000 should fall back to the heap")
	}
	q.reset(readyParams{lo: 1000, hi: 1063})
	if !q.useLanes {
		t.Fatal("dense 64-level range should use the lanes")
	}
}

// TestJobActivePriority: active() switches from base to effective at start.
func TestJobActivePriority(t *testing.T) {
	j := &Job{base: 2, eff: 5}
	if j.active() != 2 {
		t.Errorf("unstarted active = %v, want base 2", j.active())
	}
	j.started = true
	if j.active() != 5 {
		t.Errorf("started active = %v, want eff 5", j.active())
	}
}
