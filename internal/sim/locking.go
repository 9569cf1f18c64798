package sim

import (
	"fmt"

	"rtsync/internal/model"
)

// LockingKind selects the locking protocol arbitrating critical-section
// segments (model.Subtask.Segments). Local resources always use
// Highest-Locker ceiling emulation on their own processor; the kind decides
// what happens at a GLOBAL resource's boundaries.
type LockingKind int

const (
	// LockingHL is the default: Highest-Locker ceiling emulation only.
	// It handles local resources (segments or whole-execution Locks) and
	// rejects systems with global resources at Reset.
	LockingHL LockingKind = iota
	// LockingMPCP is the Multiprocessor Priority-Ceiling Protocol: a
	// global critical section executes on the requester's own processor,
	// boosted above every base priority (remote preemption between
	// critical sections follows the requesters' priorities); a job
	// requesting a busy global resource suspends on a priority-ordered
	// wait queue.
	LockingMPCP
	// LockingDPCP is the Distributed Priority-Ceiling Protocol: a global
	// critical section migrates to the resource's synchronization
	// processor (Resource.SyncProc) and executes there at boosted
	// priority; the requesting job's home processor is free meanwhile.
	LockingDPCP
)

// String names the locking kind.
func (k LockingKind) String() string {
	switch k {
	case LockingMPCP:
		return "MPCP"
	case LockingDPCP:
		return "DPCP"
	}
	return "HL"
}

// segBound is one precomputed critical-section boundary of a subtask, in
// execution order: each model.Segment contributes an acquire at progress
// Offset and a release at progress Offset+Length. The engine walks a job's
// boundaries through Job.segIdx.
type segBound struct {
	// at is the execution progress (ticks of served demand) at which the
	// boundary falls due.
	at model.Duration
	// res is the resource, target the processor execution continues on
	// after the boundary is applied (the synchronization processor for a
	// DPCP global acquire, the home processor otherwise).
	res    int32
	target int32
	// acquire distinguishes the two boundary flavors.
	acquire bool
	// boost is the priority the holder competes at inside the critical
	// section: the local Highest-Locker ceiling, or the global boost
	// floor plus the requester's base priority.
	boost model.Priority
}

// lockState is the runtime state of one resource. Only global resources
// use it: local segments serialize through ceiling boosting alone, exactly
// like whole-execution Locks.
type lockState struct {
	global bool
	held   bool
	// qhead/qtail form the intrusive wait queue of suspended jobs
	// (threaded through Job.next), ordered by base priority, ties by
	// (task, sub, instance) — the order the blocking analysis assumes.
	qhead, qtail *Job
}

// waitBefore orders a global resource's wait queue: higher base priority
// first, the deterministic job tie-break after.
func waitBefore(a, b *Job) bool {
	if a.base != b.base {
		return a.base > b.base
	}
	return jobTieLess(a, b)
}

// enqueue inserts job into the wait queue in waitBefore order.
func (ls *lockState) enqueue(job *Job) {
	job.next = nil
	if ls.qhead == nil {
		ls.qhead, ls.qtail = job, job
		return
	}
	if !waitBefore(job, ls.qtail) {
		ls.qtail.next = job
		ls.qtail = job
		return
	}
	if waitBefore(job, ls.qhead) {
		job.next = ls.qhead
		ls.qhead = job
		return
	}
	p := ls.qhead
	for p.next != nil && !waitBefore(job, p.next) {
		p = p.next
	}
	job.next = p.next
	p.next = job
	if job.next == nil {
		ls.qtail = job
	}
}

// dequeue removes and returns the highest-priority waiter, or nil.
func (ls *lockState) dequeue() *Job {
	w := ls.qhead
	if w == nil {
		return nil
	}
	ls.qhead = w.next
	if ls.qhead == nil {
		ls.qtail = nil
	}
	w.next = nil
	return w
}

// resetSegments precomputes the run's boundary lists and lock state. On
// the legacy path (no segments declared) everything stays empty and the
// engine never touches it.
func (e *Engine) resetSegments(sys *model.System, cfg Config) error {
	e.segMode = sys.HasSegments()
	e.segBuf = e.segBuf[:0]
	e.locks = e.locks[:0]
	if !e.segMode {
		e.segOff = e.segOff[:0]
		return nil
	}
	n := e.idx.Len()
	if cap(e.segOff) < n+1 {
		e.segOff = make([]int32, n+1)
	} else {
		e.segOff = e.segOff[:n+1]
	}
	// The global boost floor: every global critical section competes
	// above it, so it preempts any base-priority execution.
	var floor model.Priority
	for i := range e.subs {
		if i == 0 || e.subs[i].base > floor {
			floor = e.subs[i].base
		}
	}
	for i := 0; i < n; i++ {
		e.segOff[i] = int32(len(e.segBuf))
		st := sys.Subtask(e.idx.ID(i))
		home := int32(st.Proc)
		for _, g := range st.Segments {
			res := &sys.Resources[g.Resource]
			boost := e.ceilings[g.Resource]
			target := home
			if res.Global() {
				if cfg.Locking == LockingHL {
					return fmt.Errorf("sim: global resource %q requires LockingMPCP or LockingDPCP", res.Name)
				}
				boost = floor + st.Priority
				if cfg.Locking == LockingDPCP {
					target = int32(res.SyncProc)
				}
			}
			e.segBuf = append(e.segBuf,
				segBound{at: g.Offset, res: int32(g.Resource), target: target, acquire: true, boost: boost},
				segBound{at: g.End(), res: int32(g.Resource), target: home})
		}
	}
	e.segOff[n] = int32(len(e.segBuf))
	if cap(e.locks) < len(sys.Resources) {
		e.locks = make([]lockState, len(sys.Resources))
	} else {
		e.locks = e.locks[:len(sys.Resources)]
	}
	for r := range e.locks {
		e.locks[r] = lockState{global: sys.Resources[r].Global()}
	}
	return nil
}

// progressSegs applies every segment boundary of job that is due at its
// current execution progress, in order. It returns false when a boundary
// moved the job off processor p — a suspension on a busy global resource,
// or a DPCP migration — in which case the job is already enqueued
// elsewhere and p must dispatch someone else.
func (e *Engine) progressSegs(p int, job *Job, t model.Time) bool {
	end := e.segOff[int(job.idx)+1]
	for job.segIdx < end {
		b := &e.segBuf[job.segIdx]
		consumed := job.demand - job.Remaining
		if b.acquire {
			if b.at >= job.demand {
				// The actual demand (Config.ExecTime) ends before the
				// critical section starts: the whole segment is clipped.
				job.segIdx += 2
				continue
			}
			if b.at > consumed {
				return true
			}
			if !e.acquireSeg(p, job, b, t) {
				return false
			}
			continue
		}
		if b.at >= job.demand {
			// The release coincides with (or is clipped to) the job's
			// completion; finishRunning releases the resource.
			return true
		}
		if b.at > consumed {
			return true
		}
		if !e.releaseSeg(p, job, t) {
			return false
		}
	}
	return true
}

// acquireSeg applies an acquire boundary. Local resources boost the holder
// to the Highest-Locker ceiling and never block (the boost itself keeps
// every other user off the processor). Global resources take the lock when
// free — boosting and, under DPCP, migrating to the synchronization
// processor — or suspend the job on the wait queue when busy. The boundary
// is consumed (segIdx advanced) in every case except the suspension, whose
// pending acquire grantNext applies later. Returns false when the job left
// processor p.
func (e *Engine) acquireSeg(p int, job *Job, b *segBound, t model.Time) bool {
	r := int(b.res)
	if !e.locks[r].global {
		job.segIdx++
		job.holding = b.res
		job.boosted = true
		job.boost = b.boost
		if e.stats != nil {
			e.stats.NoteLockAcquisition()
			if b.boost > job.base {
				e.stats.NotePriorityBoost()
			}
		}
		if e.trace != nil {
			e.trace.noteLockAcquire(r, job.Key(), p, t)
		}
		return true
	}
	ls := &e.locks[r]
	if ls.held {
		job.waitStart = t
		ls.enqueue(job)
		return false
	}
	ls.held = true
	job.segIdx++
	job.holding = b.res
	job.boosted = true
	job.boost = b.boost
	if e.stats != nil {
		e.stats.NoteLockAcquisition()
		e.stats.NotePriorityBoost()
	}
	if e.trace != nil {
		e.trace.noteLockAcquire(r, job.Key(), int(b.target), t)
	}
	if int(b.target) != p {
		e.moveTo(int(b.target), job)
		return false
	}
	return true
}

// releaseSeg applies the release boundary of the job's held resource:
// unboost, hand a busy global lock to the next waiter, and — under DPCP,
// when the critical section ran on a remote synchronization processor —
// migrate the job back to its home processor's ready queue. Returns false
// when the job left processor p.
func (e *Engine) releaseSeg(p int, job *Job, t model.Time) bool {
	r := int(job.holding)
	job.segIdx++
	job.holding = -1
	job.boosted = false
	job.boost = 0
	if e.trace != nil {
		e.trace.noteLockRelease(job.Key(), t)
	}
	if e.locks[r].global {
		e.grantNext(r, t)
		if home := int(e.subs[job.idx].proc); home != p {
			e.moveTo(home, job)
			return false
		}
	}
	return true
}

// releaseAtCompletion releases the resource a completing job still holds —
// a critical section extending to the end of its execution.
func (e *Engine) releaseAtCompletion(job *Job, t model.Time) {
	r := int(job.holding)
	job.holding = -1
	job.boosted = false
	job.boost = 0
	if e.trace != nil {
		e.trace.noteLockRelease(job.Key(), t)
	}
	if e.locks[r].global {
		e.grantNext(r, t)
	}
}

// grantNext hands resource r to the highest-priority waiter, if any:
// the waiter acquires through its pending boundary (boost, lock ownership)
// and joins the ready queue of the processor its critical section runs on.
// With no waiters the lock simply becomes free.
func (e *Engine) grantNext(r int, t model.Time) {
	ls := &e.locks[r]
	w := ls.dequeue()
	if w == nil {
		ls.held = false
		return
	}
	b := &e.segBuf[w.segIdx]
	w.holding = b.res
	w.boosted = true
	w.boost = b.boost
	w.segIdx++
	if e.stats != nil {
		e.stats.NoteLockSuspension(int64(t.Sub(w.waitStart)))
		e.stats.NoteLockAcquisition()
		e.stats.NotePriorityBoost()
	}
	if e.trace != nil {
		e.trace.noteLockAcquire(r, w.Key(), int(b.target), t)
	}
	e.moveTo(int(b.target), w)
}

// moveTo pushes job onto processor tp's ready queue and queues tp for
// dispatch at the current instant.
func (e *Engine) moveTo(tp int, job *Job) {
	ps := &e.procs[tp]
	ps.ready.push(job)
	ps.idleNotified = false
	e.markDirty(tp)
}

// progressRunning applies the running job's due boundaries after the clock
// advanced to t (the opSegment path). When the job stays put, its next
// tentative event is re-armed; when it leaves — suspension or migration —
// the processor is vacated like a completion, with no preemption counted
// (the job moved itself, no contender displaced it).
func (e *Engine) progressRunning(p int, t model.Time) {
	ps := &e.procs[p]
	job := ps.running
	before := job.segIdx
	if e.progressSegs(p, job, t) {
		if job.segIdx != before {
			e.armSegEvent(p, job, t)
		}
		return
	}
	if e.trace != nil && t > ps.segStart {
		e.trace.noteSegment(p, job.Key(), ps.segStart, t)
	}
	ps.running = nil
	ps.gen++
	ps.idleStart = t
}

// armSegEvent arms processor p's next tentative event for the running job:
// its next segment boundary when that falls strictly before completion,
// otherwise the completion itself. Like dispatch, it goes through arm, so
// any earlier tentative event goes stale.
func (e *Engine) armSegEvent(p int, job *Job, t model.Time) {
	at := t.Add(job.Remaining)
	op := int8(opCompletion)
	if job.segIdx < e.segOff[int(job.idx)+1] {
		if b := &e.segBuf[job.segIdx]; b.at < job.demand {
			consumed := job.demand - job.Remaining
			at = t.Add(b.at - consumed)
			op = opSegment
		}
	}
	e.arm(p, at, op)
}

// startJob dispatches job on processor p unless its due boundaries move it
// elsewhere first (a zero-offset acquire that suspends or migrates).
// Returns false when p is still vacant and should try its next ready job.
func (e *Engine) startJob(p int, job *Job, t model.Time) bool {
	if e.segMode && !e.progressSegs(p, job, t) {
		return false
	}
	e.dispatch(p, job, t)
	return true
}
