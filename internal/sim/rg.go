package sim

import "rtsync/internal/model"

// RG is the Release Guard protocol (§3.2), the paper's main contribution.
// The scheduler keeps one variable per subtask — the release guard g(i,j),
// the earliest instant the subtask's next instance may be released — and
// applies two rules:
//
//  1. When an instance of T(i,j) is released, set g(i,j) to the current
//     time plus the task's period.
//  2. At an idle point of the processor, set g(i,j) to the current time.
//
// A synchronization signal arriving after the guard releases the successor
// immediately; one arriving earlier is held until the guard expires. Rule 1
// alone makes every subtask's inter-release time at least its period inside
// any busy period, so Algorithm SA/PM's bounds remain valid (Theorem 1);
// rule 2 shortens average EER times without lengthening any busy period.
//
// Rule2 can be disabled to build the ablation the paper discusses when
// arguing rule 2's benefit ("the RG protocol could thus yield shorter
// average task EER times even with rule (1) alone").
type RG struct {
	// Rule2 enables the idle-point rule. NewRG sets it; construct with
	// NewRGRule1Only for the ablation variant.
	rule2 bool

	// guard[si] is g(i,j) keyed by dense subtask index.
	guard []model.Time
	// pending[si] holds the instances whose synchronization signal arrived
	// before the guard; they are released in order as the guard allows.
	pending [][]int64
	// hasPending[si] mirrors len(pending[si]) > 0 in one byte, so rule 2's
	// idle-point sweep touches one cache line instead of every slice
	// header — the sweep runs at every idle point of every processor.
	hasPending []bool
	// arrival[si] mirrors pending[si] with each held signal's arrival
	// time — maintained only when the engine carries observability stats,
	// so stall durations can be recorded at release. Empty (and free)
	// otherwise.
	arrival [][]model.Time
	// onProc[p] lists the dense indices of processor p's subtasks (rule 2
	// iterates them in the same task-major order as System.OnProcessor).
	onProc [][]int32
	// timer is the registered drain callback; timerFn caches the closure
	// so re-Init on a reused instance never reallocates it.
	timer   TimerID
	timerFn TimerFunc
}

// NewRG returns the full Release Guard protocol (rules 1 and 2).
func NewRG() *RG { return &RG{rule2: true} }

// NewRGRule1Only returns the ablation variant that never applies rule 2.
func NewRGRule1Only() *RG { return &RG{rule2: false} }

// Name implements Protocol.
func (rg *RG) Name() string {
	if !rg.rule2 {
		return "RG1"
	}
	return "RG"
}

// Init implements Protocol: all guards start at zero so first instances
// release as soon as their predecessors complete. Per-subtask state is
// dense slices whose backing arrays survive across runs of the same value.
func (rg *RG) Init(e *Engine) error {
	s := e.System()
	ix := e.Index()
	n := ix.Len()
	if cap(rg.guard) < n {
		rg.guard = make([]model.Time, n)
	} else {
		rg.guard = rg.guard[:n]
	}
	rg.pending = growRings(rg.pending, n)
	rg.arrival = growTimeRings(rg.arrival, n)
	if cap(rg.hasPending) < n {
		rg.hasPending = make([]bool, n)
	} else {
		rg.hasPending = rg.hasPending[:n]
	}
	for i := 0; i < n; i++ {
		rg.guard[i] = 0
		rg.pending[i] = rg.pending[i][:0]
		rg.arrival[i] = rg.arrival[i][:0]
		rg.hasPending[i] = false
	}
	rg.onProc = growProcLists(rg.onProc, len(s.Procs))
	for p := range rg.onProc {
		rg.onProc[p] = rg.onProc[p][:0]
	}
	for i := 0; i < n; i++ {
		p := s.Subtask(ix.ID(i)).Proc
		rg.onProc[p] = append(rg.onProc[p], int32(i))
	}
	if rg.timerFn == nil {
		rg.timerFn = func(e *Engine, sub int, _ int64, now model.Time) {
			rg.drain(e, sub, now)
		}
	}
	rg.timer = e.RegisterTimer(rg.timerFn)
	return nil
}

// growRings resizes a slice-of-slices to length n, preserving the inner
// backing arrays of every previously used entry.
func growRings(s [][]int64, n int) [][]int64 {
	if cap(s) < n {
		old := s[:cap(s)]
		s = make([][]int64, n)
		copy(s, old)
		return s
	}
	return s[:n]
}

// growTimeRings is growRings for the arrival-time lists.
func growTimeRings(s [][]model.Time, n int) [][]model.Time {
	if cap(s) < n {
		old := s[:cap(s)]
		s = make([][]model.Time, n)
		copy(s, old)
		return s
	}
	return s[:n]
}

// growProcLists is growRings for the per-processor index lists.
func growProcLists(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		old := s[:cap(s)]
		s = make([][]int32, n)
		copy(s, old)
		return s
	}
	return s[:n]
}

// OnRelease implements Protocol: rule 1.
func (rg *RG) OnRelease(e *Engine, j *Job, t model.Time) {
	period := e.sys.Tasks[j.ID.Task].Period
	rg.guard[j.idx] = t.Add(period)
}

// OnComplete implements Protocol: signal the successor; release it now if
// its guard has passed, otherwise hold the signal until the guard expires
// (or an idle point lowers it).
func (rg *RG) OnComplete(e *Engine, j *Job, t model.Time) {
	si := int(j.idx)
	if e.subs[si].isLast {
		return
	}
	rg.pending[si+1] = append(rg.pending[si+1], j.Instance)
	rg.hasPending[si+1] = true
	if e.stats != nil {
		rg.arrival[si+1] = append(rg.arrival[si+1], t)
	}
	rg.drain(e, si+1, t)
}

// drain releases held instances of the subtask at dense index si whose
// guard has passed, re-arming a timer for the earliest remaining one.
func (rg *RG) drain(e *Engine, si int, t model.Time) {
	for len(rg.pending[si]) > 0 && rg.guard[si] <= t {
		p := rg.pending[si]
		m := p[0]
		copy(p, p[1:])
		rg.pending[si] = p[:len(p)-1]
		if e.stats != nil && len(rg.arrival[si]) > 0 {
			a := rg.arrival[si]
			arrived := a[0]
			copy(a, a[1:])
			rg.arrival[si] = a[:len(a)-1]
			// A signal released at its own arrival instant was never
			// held; only a positive gap is a guard-induced stall.
			if t > arrived {
				e.stats.NoteRGStall(int64(t.Sub(arrived)))
			}
		}
		// The release triggers OnRelease, which advances the guard by
		// rule 1, naturally spacing any remaining held instances.
		e.release(si, m)
	}
	if len(rg.pending[si]) > 0 {
		// Wake up when the (possibly advanced) guard expires. Stale
		// timers from earlier arrivals drain nothing and are harmless.
		e.StartTimer(rg.guard[si], rg.timer, si, 0)
	} else {
		rg.hasPending[si] = false
	}
}

// OnIdle implements Protocol: rule 2 — at an idle point, pull every guard
// on the processor back to the current time and release any held signals.
func (rg *RG) OnIdle(e *Engine, proc int, t model.Time) {
	if !rg.rule2 {
		return
	}
	for _, si := range rg.onProc[proc] {
		if rg.guard[si] > t {
			rg.guard[si] = t
		}
		if rg.hasPending[si] {
			rg.drain(e, int(si), t)
		}
	}
}

// Overhead implements Protocol (§3.3: both interrupt kinds, two interrupts
// per instance, one guard variable per subtask, local clocks suffice —
// and, unlike PM/MPM, no dependence on schedulability-analysis results).
func (*RG) Overhead() Overhead {
	return Overhead{
		SyncInterrupt:         true,
		TimerInterrupt:        true,
		InterruptsPerInstance: 2,
		VariablesPerSubtask:   1,
	}
}

var _ Protocol = (*RG)(nil)
