package sim

import (
	"math/bits"

	"rtsync/internal/model"
)

// maxLanes is the widest priority range the bitmap-indexed lanes cover: one
// uint64 occupancy word. Realistic systems rank a handful of subtasks per
// processor (priorities 1..n), so the cap never bites there; wider or
// sparser hand-built assignments fall back to the heap.
const maxLanes = 64

// readyParams configures every per-processor ready queue for one run.
type readyParams struct {
	// edf selects deadline ordering, which has no bounded key space and
	// therefore always uses the heap.
	edf bool
	// lo and hi bound every priority a job can compete at this run
	// (min base .. max effective); the lanes index priorities by hi-p.
	lo, hi model.Priority
}

// lanes reports whether the run uses the bitmap-indexed lanes.
func (rp readyParams) lanes() bool {
	return !rp.edf && int64(rp.hi)-int64(rp.lo) < maxLanes
}

// readyQueue is the per-processor set of released, incomplete jobs, popped
// in the deterministic dispatch order. Under fixed priority: active
// priority first (so a preempted lock holder keeps its ceiling), ties by
// (task, sub, instance). Under EDF: earlier absolute deadline first, same
// tie-break. Two implementations sit behind the facade — bitmap-indexed
// priority lanes (fixed priority over a dense range) and a binary heap
// (EDF or wide priority ranges) — and pop in the identical order.
type readyQueue struct {
	useLanes bool
	lanes    priorityLanes
	heap     readyHeap
}

// reset empties the queue in place, keeping capacity, and selects the
// implementation and ordering for the next run.
func (q *readyQueue) reset(rp readyParams) {
	q.useLanes = rp.lanes()
	q.lanes.reset(rp.hi)
	q.heap.reset(rp.edf)
}

func (q *readyQueue) push(j *Job) {
	if q.useLanes {
		q.lanes.push(j)
		return
	}
	q.heap.push(j)
}

func (q *readyQueue) pop() *Job {
	if q.useLanes {
		return q.lanes.pop()
	}
	return q.heap.pop()
}

// peek returns the most urgent ready job without removing it, or nil.
func (q *readyQueue) peek() *Job {
	if q.useLanes {
		return q.lanes.peek()
	}
	return q.heap.peek()
}

func (q *readyQueue) empty() bool { return q.len() == 0 }

func (q *readyQueue) len() int {
	if q.useLanes {
		return q.lanes.count
	}
	return q.heap.len()
}

// priorityLanes dispatches in O(1): one intrusive FIFO per priority level,
// indexed by a uint64 occupancy bitmap. Lane b holds jobs competing at
// priority top-b, so lane 0 is the most urgent and the next job to
// dispatch heads lane bits.TrailingZeros64(occ). A job's active priority
// is stable while queued (started flips only across dispatch, when the job
// is out of the queue), so the lane chosen at push stays correct.
//
// Within a lane the heap's (task, sub, instance) tie-break is preserved by
// ordered insertion. Releases arrive in exactly that order per subtask, so
// the insert is a tail append in practice; the walk only runs when distinct
// subtasks share a priority level.
type priorityLanes struct {
	top   model.Priority
	occ   uint64
	count int
	lane  [maxLanes]laneFIFO
}

// laneFIFO is an intrusive list of jobs threaded through Job.next, kept in
// (task, sub, instance) order.
type laneFIFO struct{ head, tail *Job }

// reset empties every lane and rebases the bitmap at the run's top
// priority.
func (q *priorityLanes) reset(top model.Priority) {
	q.top = top
	q.occ = 0
	q.count = 0
	q.lane = [maxLanes]laneFIFO{}
}

func (q *priorityLanes) push(j *Job) {
	b := uint(q.top - j.active())
	q.lane[b].insert(j)
	q.occ |= 1 << b
	q.count++
}

func (q *priorityLanes) pop() *Job {
	b := uint(bits.TrailingZeros64(q.occ))
	l := &q.lane[b]
	j := l.head
	l.head = j.next
	if l.head == nil {
		l.tail = nil
		q.occ &^= 1 << b
	}
	j.next = nil
	q.count--
	return j
}

func (q *priorityLanes) peek() *Job {
	if q.occ == 0 {
		return nil
	}
	return q.lane[bits.TrailingZeros64(q.occ)].head
}

// insert places j by (task, sub, instance). The tail comparison first makes
// the in-order common case O(1).
func (l *laneFIFO) insert(j *Job) {
	j.next = nil
	if l.tail == nil {
		l.head, l.tail = j, j
		return
	}
	if !jobTieLess(j, l.tail) {
		l.tail.next = j
		l.tail = j
		return
	}
	if jobTieLess(j, l.head) {
		j.next = l.head
		l.head = j
		return
	}
	p := l.head
	for p.next != nil && !jobTieLess(j, p.next) {
		p = p.next
	}
	j.next = p.next
	p.next = j
}

// jobTieLess is the deterministic same-priority tie-break shared by both
// implementations: (task, sub, instance) ascending.
func jobTieLess(a, b *Job) bool {
	if a.ID.Task != b.ID.Task {
		return a.ID.Task < b.ID.Task
	}
	if a.ID.Sub != b.ID.Sub {
		return a.ID.Sub < b.ID.Sub
	}
	return a.Instance < b.Instance
}

// readyHeap is the hand-rolled binary-heap implementation: the EDF variant
// (deadlines have no bounded key space to index) and the fixed-priority
// path for ranges wider than the lanes' 64 levels.
type readyHeap struct {
	edf  bool
	jobs []*Job
}

// less reports whether a dispatches strictly before b.
func (q *readyHeap) less(a, b *Job) bool {
	if q.edf {
		if a.deadline != b.deadline {
			return a.deadline < b.deadline
		}
	} else if pa, pb := a.active(), b.active(); pa != pb {
		return pa > pb
	}
	return jobTieLess(a, b)
}

func (q *readyHeap) push(j *Job) {
	q.jobs = append(q.jobs, j)
	i := len(q.jobs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.jobs[i], q.jobs[parent]) {
			break
		}
		q.jobs[i], q.jobs[parent] = q.jobs[parent], q.jobs[i]
		i = parent
	}
}

func (q *readyHeap) pop() *Job {
	top := q.jobs[0]
	n := len(q.jobs) - 1
	q.jobs[0] = q.jobs[n]
	q.jobs[n] = nil
	q.jobs = q.jobs[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(q.jobs[l], q.jobs[smallest]) {
			smallest = l
		}
		if r < n && q.less(q.jobs[r], q.jobs[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.jobs[i], q.jobs[smallest] = q.jobs[smallest], q.jobs[i]
		i = smallest
	}
	return top
}

// peek returns the most urgent ready job without removing it, or nil.
func (q *readyHeap) peek() *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	return q.jobs[0]
}

func (q *readyHeap) len() int { return len(q.jobs) }

// reset empties the heap in place, keeping capacity, and updates the
// dispatch discipline for the next run.
func (q *readyHeap) reset(edf bool) {
	for i := range q.jobs {
		q.jobs[i] = nil
	}
	q.jobs = q.jobs[:0]
	q.edf = edf
}
