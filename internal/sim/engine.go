package sim

import (
	"errors"
	"fmt"

	"rtsync/internal/model"
	"rtsync/internal/obs"
)

// The obs package mirrors the event-op enum by index
// (opCompletion..opSegment); these compile-time assertions fail unless
// obs.NumEventOps equals the op count exactly.
const (
	_ = uint(obs.NumEventOps - opSegment - 1)
	_ = uint(opSegment + 1 - obs.NumEventOps)
)

// Scheduler selects the per-processor dispatching discipline.
type Scheduler int

const (
	// FixedPriority is the paper's setting: preemptive fixed-priority
	// dispatch by subtask priority (with ceiling emulation for locks).
	FixedPriority Scheduler = iota
	// EDF dispatches by earliest absolute deadline
	// (release + LocalDeadline), the discipline of the jitter-EDD line
	// of work the paper's §1 contrasts itself with. Requires every
	// subtask to carry a positive LocalDeadline
	// (priority.AssignLocalDeadlines) and is incompatible with shared
	// resources.
	EDF
)

// String names the scheduler.
func (s Scheduler) String() string {
	if s == EDF {
		return "EDF"
	}
	return "FP"
}

// Config parameterizes one simulation run.
type Config struct {
	// Protocol is the synchronization protocol in force. Required.
	Protocol Protocol
	// Scheduler is the dispatching discipline (default FixedPriority).
	Scheduler Scheduler
	// Horizon is the end of simulated time; events after it do not run.
	// Required (positive).
	Horizon model.Time
	// Trace enables full execution-trace recording (segments, releases,
	// completions, idle points) for rendering and validation. Costs
	// memory proportional to the number of jobs; off by default.
	Trace bool
	// FirstReleaseDelay, when non-nil, returns an extra delay (>= 0)
	// inserted before instance m (m >= 1) of task i's first subtask, on
	// top of the period. This models sporadic first releases — the
	// condition under which §3.1 notes the PM protocol "does not work
	// correctly". Nil means strictly periodic first releases.
	FirstReleaseDelay func(task int, m int64) model.Duration
	// ExecTime, when non-nil, returns the ACTUAL execution demand of
	// instance m of a subtask — §6's "variations in the execution times
	// of subtasks". Results are clamped to [1, WCET] (the model's Exec
	// stays the worst case, so WCET-based analyses remain sound). Nil
	// means every instance consumes its full WCET.
	ExecTime func(id model.SubtaskID, m int64) model.Duration
	// CollectSamples retains every completed instance's EER time so that
	// Metrics.Tasks[i].EERPercentile works. Costs memory proportional to
	// the number of completed task instances; off by default.
	CollectSamples bool
	// ClockOffsets gives each processor's local-clock offset (>= 0)
	// from global time. Only ABSOLUTE local-clock readings shift:
	// first-subtask sources start at phase + offset, and the PM
	// protocol — which releases subtasks at absolute local phases —
	// drifts apart across processors, violating precedence. Protocols
	// built on relative timers and signals (DS, MPM, RG) are immune,
	// which is §3.3's "PM requires a centralized clock or strict clock
	// synchronization" made executable. Nil or all-zero means
	// synchronized clocks.
	ClockOffsets []model.Duration
	// Locking selects the protocol arbitrating critical-section segments
	// on GLOBAL resources: LockingHL (the default) rejects them,
	// LockingMPCP runs global critical sections on the requester's
	// processor under boosted priorities, LockingDPCP migrates them to
	// the resource's synchronization processor. Note this is orthogonal
	// to Protocol, which governs end-to-end RELEASE synchronization (when
	// successor subtasks are released); Locking governs mutual exclusion
	// within subtask execution. Systems without segments ignore it.
	Locking LockingKind
	// MaxEvents aborts a runaway simulation; 0 means the default cap.
	MaxEvents int64
	// Stats, when non-nil, receives engine counters (events popped per
	// op, preemptions, context switches, release-guard stalls, event-queue
	// high water, per-processor idle time). A tentative event that a re-arm
	// overwrites is counted at the overwrite when it fell due within the
	// horizon, exactly where the queue used to pop and drop it, so the
	// per-op totals match Metrics.Events; the high water counts the event
	// heap and the armed tentative slots. The hooks are nil-guarded
	// plain-type calls: a nil Stats costs one predictable branch per hook
	// and the instrumented loop stays allocation-free either way, so
	// metrics and traces are bit-identical with observability on or off.
	// A Stats may be shared across engines and read concurrently (all
	// counters are atomic), which is how sweeps aggregate it.
	Stats *obs.SimStats
}

// defaultMaxEvents bounds a single run; generously above any workload the
// experiments produce.
const defaultMaxEvents = 200_000_000

// ErrEventBudget reports a simulation aborted by Config.MaxEvents.
var ErrEventBudget = errors.New("sim: event budget exhausted")

// procState is the dispatch state of one processor.
type procState struct {
	ready *readyQueue
	// running is the job currently holding the processor, nil when idle.
	running *Job
	// runStart is when running last started/resumed accumulating time.
	runStart model.Time
	// segStart is when running was dispatched (for trace segments;
	// equals runStart unless the clock advanced without preemption).
	segStart model.Time
	// gen invalidates stale tentative events: each (re)dispatch bumps it
	// and tags the new tentative event in the processor's slot.
	gen int64
	// idleNotified suppresses duplicate idle-point hooks while the
	// processor stays idle; cleared when any job arrives.
	idleNotified bool
	// idleStart is when running last became nil (run start, completion,
	// or preemption) — the origin of the current idle period, charged to
	// observability's per-processor idle counter at the next dispatch.
	idleStart model.Time
}

// subInfo caches the per-subtask parameters the event loop reads on every
// release, flattened out of the model's nested task structures.
type subInfo struct {
	proc   int32
	isLast bool
	exec   model.Duration
	local  model.Duration
	base   model.Priority
	eff    model.Priority
}

// TimerFunc is a protocol timer callback registered once per run with
// RegisterTimer. The engine invokes it with the dense subtask index and
// instance the timer was armed with — the typed replacement for per-timer
// closures.
type TimerFunc func(e *Engine, sub int, inst int64, now model.Time)

// TimerID names a registered TimerFunc for StartTimer.
type TimerID int32

// Engine runs one simulation. Construct with New, drive with Run, and
// recycle across runs with Reset: all steady-state event-loop state lives
// in dense, index-keyed slices whose backing arrays survive resets, so the
// per-event hot path performs no heap allocations.
type Engine struct {
	sys    *model.System
	idx    *model.SubtaskIndex
	cfg    Config
	clock  model.Time
	events eventHeap
	// slots holds each processor's tentative completion or segment event;
	// Run merges them with events, which holds only timers and releases.
	slots  tentativeSlots
	seq    int64
	procs  []procState
	dirty  []int
	inDirt []bool

	metrics *Metrics
	trace   *Trace
	// stats is Config.Stats, cached for the nil-guarded hot-path hooks.
	stats *obs.SimStats

	// subs caches per-subtask dispatch parameters, densely indexed.
	subs []subInfo
	// releaseCount[i] is the next expected instance of subtask i, so
	// out-of-order protocol releases are caught immediately.
	releaseCount []int64
	// completedThrough[i] is subtask i's completion watermark: instances
	// [0, completedThrough[i]) have completed. Per-subtask completions
	// are in instance order under both FP tie-breaking and EDF (the
	// engine asserts it), so a watermark replaces the old ever-growing
	// completion map.
	completedThrough []int64
	// firstRelease[i] holds task i's pending EER origins: the release
	// instants of first-subtask instances not yet consumed by a
	// last-subtask completion. Bounded by the task's in-flight
	// instances, unlike the old per-run map.
	firstRelease []relRing

	// timers holds the protocol timer callbacks registered this run.
	timers []TimerFunc
	// free is the Job free list; completed jobs are recycled through it.
	free []*Job
	// jobs is the arena of every Job this engine ever allocated. Reset
	// rebuilds free from it, reclaiming jobs still in flight (queued or
	// running) when a run stops at the horizon.
	jobs []*Job

	// out is the reused Outcome returned by Run; each Reset invalidates
	// the previous run's view of it.
	out Outcome

	// ceilings holds per-resource priority ceilings for the Highest
	// Locker dispatch rule.
	ceilings []model.Priority

	// segMode is set when the system declares critical-section segments;
	// segOff/segBuf are the per-subtask boundary lists (two boundaries
	// per segment, segBuf[segOff[si]:segOff[si+1]]), and locks the
	// per-resource runtime lock state. All empty on the legacy path.
	segMode bool
	segOff  []int32
	segBuf  []segBound
	locks   []lockState

	eventsRun int64
	ran       bool
}

// New builds an engine for one run over s. The system is validated and
// cloned; the caller may reuse s freely afterwards.
func New(s *model.System, cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(s.Clone(), cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-arms the engine for a fresh run over s, reusing the event queue,
// ready queues, job free list, metrics, and dense per-subtask state of
// earlier runs.
//
// Aliasing contract: the engine aliases s directly — it is NOT cloned — and
// reads it throughout the run, so the caller must not mutate s before the
// run finishes (mutating it between runs is fine; the next Reset re-reads
// everything). The previous run's Outcome is invalidated: its Metrics are
// reset in place and refilled. Callers needing several runs' metrics at
// once must Metrics.CopyFrom each into a retained snapshot. Only the
// public one-shot entry points (New, Run) clone. An engine must not be
// shared across goroutines.
func (e *Engine) Reset(s *model.System, cfg Config) error {
	if cfg.Protocol == nil {
		return errors.New("sim: Config.Protocol is required")
	}
	if cfg.Horizon <= 0 {
		return fmt.Errorf("sim: horizon %v is not positive", cfg.Horizon)
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if cfg.Scheduler == EDF {
		if len(s.Resources) > 0 {
			return errors.New("sim: EDF scheduling does not support shared resources")
		}
		for ti := range s.Tasks {
			for j := range s.Tasks[ti].Subtasks {
				if s.Tasks[ti].Subtasks[j].LocalDeadline <= 0 {
					id := model.SubtaskID{Task: ti, Sub: j}
					return fmt.Errorf("sim: EDF scheduling requires a positive local deadline for %v (use priority.AssignLocalDeadlines)", id)
				}
			}
		}
	}
	if cfg.ClockOffsets != nil {
		if len(cfg.ClockOffsets) != len(s.Procs) {
			return fmt.Errorf("sim: %d clock offsets for %d processors", len(cfg.ClockOffsets), len(s.Procs))
		}
		for p, off := range cfg.ClockOffsets {
			if off < 0 {
				return fmt.Errorf("sim: negative clock offset %v for processor %d", off, p)
			}
		}
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = defaultMaxEvents
	}

	sys := s
	e.sys = sys
	e.cfg = cfg
	if e.idx == nil {
		e.idx = model.NewSubtaskIndex(sys)
	} else {
		e.idx.Reset(sys)
	}
	e.clock = 0
	e.seq = 0
	e.eventsRun = 0
	e.ran = false
	e.events.reset()
	e.slots.reset(len(sys.Procs))
	e.timers = e.timers[:0]
	e.dirty = e.dirty[:0]
	// The old ready queues and running slots are about to be cleared, so
	// every arena job — including ones in flight when the last run hit the
	// horizon — is free again.
	e.free = append(e.free[:0], e.jobs...)

	n := e.idx.Len()
	e.releaseCount = resetInt64s(e.releaseCount, n)
	e.completedThrough = resetInt64s(e.completedThrough, n)
	if cap(e.subs) < n {
		e.subs = make([]subInfo, n)
	} else {
		e.subs = e.subs[:n]
	}
	if len(sys.Resources) == 0 {
		e.ceilings = e.ceilings[:0]
	} else {
		e.ceilings = sys.ResourceCeilings()
	}
	for i := 0; i < n; i++ {
		id := e.idx.ID(i)
		st := sys.Subtask(id)
		e.subs[i] = subInfo{
			proc:   int32(st.Proc),
			isLast: e.idx.IsLast(i),
			exec:   st.Exec,
			local:  st.LocalDeadline,
			base:   st.Priority,
			eff:    sys.EffectivePriority(id, e.ceilings),
		}
	}
	if err := e.resetSegments(sys, cfg); err != nil {
		return err
	}

	// Bound the priorities jobs compete at this run (base before first
	// dispatch, effective after, critical-section boosts on top); the
	// ready lanes index a bitmap by hi-priority, falling back to the heap
	// when the range is too wide.
	rp := readyParams{edf: cfg.Scheduler == EDF}
	for i := range e.subs {
		if i == 0 || e.subs[i].base < rp.lo {
			rp.lo = e.subs[i].base
		}
		if i == 0 || e.subs[i].eff > rp.hi {
			rp.hi = e.subs[i].eff
		}
	}
	for i := range e.segBuf {
		if b := &e.segBuf[i]; b.acquire && b.boost > rp.hi {
			rp.hi = b.boost
		}
	}
	if len(e.procs) != len(sys.Procs) {
		e.procs = make([]procState, len(sys.Procs))
		e.inDirt = make([]bool, len(sys.Procs))
	}
	for p := range e.procs {
		ps := &e.procs[p]
		if ps.ready == nil {
			ps.ready = new(readyQueue)
		}
		ps.ready.reset(rp)
		ps.running = nil
		ps.runStart = 0
		ps.segStart = 0
		ps.gen = 0
		ps.idleNotified = false
		ps.idleStart = 0
		e.inDirt[p] = false
	}
	if cap(e.firstRelease) < len(sys.Tasks) {
		e.firstRelease = make([]relRing, len(sys.Tasks))
	} else {
		e.firstRelease = e.firstRelease[:len(sys.Tasks)]
	}
	for i := range e.firstRelease {
		e.firstRelease[i].reset()
	}

	if e.metrics == nil {
		e.metrics = newMetrics(sys, e.idx)
	} else {
		e.metrics.reset(sys, e.idx)
	}
	e.trace = nil
	if cfg.Trace {
		e.trace = newTrace(sys, cfg.Scheduler)
	}
	e.stats = cfg.Stats
	return nil
}

// resetInt64s returns a zeroed slice of length n, reusing s's backing array
// when it is large enough.
func resetInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// System returns the engine's (cloned) system; protocols read parameters
// from it.
func (e *Engine) System() *model.System { return e.sys }

// Index returns the dense subtask index over the engine's system. Protocols
// use it to key their per-subtask state by flat slice position instead of
// SubtaskID maps.
func (e *Engine) Index() *model.SubtaskIndex { return e.idx }

// Stats returns the run's counter bank, nil when observability is off.
// Protocols use it the same way the engine does: one nil check, then
// direct concrete-type calls.
func (e *Engine) Stats() *obs.SimStats { return e.stats }

// Now returns the current simulated time.
func (e *Engine) Now() model.Time { return e.clock }

// Horizon returns the configured end of simulated time.
func (e *Engine) Horizon() model.Time { return e.cfg.Horizon }

// Outcome bundles a run's results.
type Outcome struct {
	Metrics *Metrics
	// Trace is nil unless Config.Trace was set.
	Trace *Trace
}

// Run executes the simulation to the horizon and returns its outcome. Each
// New or Reset permits exactly one Run.
func (e *Engine) Run() (*Outcome, error) {
	if e.ran {
		return nil, errors.New("sim: Run called again without Reset")
	}
	e.ran = true
	if err := e.cfg.Protocol.Init(e); err != nil {
		return nil, fmt.Errorf("sim: init %s: %w", e.cfg.Protocol.Name(), err)
	}
	// Seed the periodic first-subtask releases, anchored to the local
	// clock of each task's first processor.
	for i := range e.sys.Tasks {
		first := e.sys.Tasks[i].Subtasks[0].Proc
		e.pushFirstRelease(i, 0, e.sys.Tasks[i].Phase.Add(e.ClockOffset(first)))
	}
	for {
		if e.stats != nil {
			e.stats.ObserveQueueDepth(int64(e.events.len() + e.slots.armed))
		}
		// Merge the slots with the heap in (at, kind, seq) order: a slot
		// (kindCompletion) wins every tie with the heap's timers and
		// releases, so the heap pops only an event strictly before the
		// earliest slot.
		var ev event
		p := e.slots.earliest()
		if p >= 0 && (e.events.len() == 0 || e.slots.s[p].key.at <= e.events.top().at) {
			e.slots.take(p, &ev)
		} else if e.events.len() > 0 {
			ev = e.events.pop()
		} else {
			break
		}
		if e.stats != nil {
			e.stats.CountEvent(int(ev.op))
		}
		if ev.at > e.cfg.Horizon {
			break
		}
		if ev.at < e.clock {
			return nil, fmt.Errorf("sim: event scheduled in the past (%v < %v)", ev.at, e.clock)
		}
		e.clock = ev.at
		e.exec(&ev)
		e.settleAll(e.clock)
		e.eventsRun++
		if e.eventsRun > e.cfg.MaxEvents {
			return nil, fmt.Errorf("%w (%d events)", ErrEventBudget, e.eventsRun)
		}
	}
	e.metrics.Horizon = e.cfg.Horizon
	e.metrics.Events = e.eventsRun
	if e.trace != nil {
		e.closeOpenSegments()
	}
	if e.stats != nil {
		// Close each processor's open idle period at the horizon so idle
		// time sums to exactly (horizon − busy time) per processor.
		for p := range e.procs {
			if e.procs[p].running == nil {
				e.stats.AddIdle(p, int64(e.cfg.Horizon.Sub(e.procs[p].idleStart)))
			}
		}
		e.stats.NoteRun()
	}
	e.out = Outcome{Metrics: e.metrics, Trace: e.trace}
	return &e.out, nil
}

// exec dispatches one popped event by its op.
func (e *Engine) exec(ev *event) {
	switch ev.op {
	case opCompletion, opSegment:
		ps := &e.procs[ev.a]
		if ps.gen != ev.inst || ps.running == nil {
			return // stale: the job was preempted or finished earlier
		}
		e.markDirty(int(ev.a))
	case opTimer:
		e.timers[ev.a](e, int(ev.b), ev.inst, e.clock)
	case opRelease:
		e.release(int(ev.b), ev.inst)
	case opFirstRelease:
		task := int(ev.b)
		e.release(e.idx.TaskOffset(task), ev.inst)
		next := e.clock.Add(e.sys.Tasks[task].Period)
		if e.cfg.FirstReleaseDelay != nil {
			d := e.cfg.FirstReleaseDelay(task, ev.inst+1)
			if d < 0 {
				d = 0
			}
			next = next.Add(d)
		}
		if next <= e.cfg.Horizon {
			e.pushFirstRelease(task, ev.inst+1, next)
		}
	}
}

// Run is the package-level convenience: build an engine and run it.
func Run(s *model.System, cfg Config) (*Outcome, error) {
	e, err := New(s, cfg)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// Runner reuses one engine across many runs: queues, free lists, dense
// state, and Metrics all keep their allocations, so a warm Runner's
// per-run setup allocates nothing. It inherits the Engine's aliasing
// contract: the system is NOT cloned (the caller must not mutate it
// mid-run), and each Run invalidates the previous Outcome — its Metrics
// are reset in place and refilled. Callers comparing protocols on one
// system snapshot each run with Metrics.CopyFrom. A Runner is
// single-goroutine, like the Engine it wraps; sweeps use one Runner per
// worker.
type Runner struct {
	e *Engine

	// Stats, when non-nil, is attached to every run whose Config does not
	// carry its own — how sweep workers route all their runs into one
	// shared counter bank without touching each study's Config literal.
	Stats *obs.SimStats

	// Spans, when non-nil, receives one pipeline "run" span per Run
	// (engine reset + event loop), tagged with SpanLabel / SpanUnit —
	// the sweep worker's current cell label index and global unit order.
	// A nil Spans costs one predictable branch per Run, matching the
	// Stats contract.
	Spans     *obs.SpanArena
	SpanLabel int32
	SpanUnit  int64
}

// Run simulates s under cfg, recycling the wrapped engine.
func (r *Runner) Run(s *model.System, cfg Config) (*Outcome, error) {
	if r.e == nil {
		r.e = &Engine{}
	}
	if cfg.Stats == nil {
		cfg.Stats = r.Stats
	}
	var t0 int64
	if r.Spans != nil {
		t0 = r.Spans.Clock()
	}
	if err := r.e.Reset(s, cfg); err != nil {
		return nil, err
	}
	out, err := r.e.Run()
	if r.Spans != nil {
		r.Spans.Record(obs.SpanRun, t0, r.Spans.Clock(), r.SpanLabel, r.SpanUnit)
	}
	return out, err
}

// push schedules a timer or release on the event heap, stamping its
// sequence number.
func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
}

// pushFirstRelease arms instance m of task i's first subtask at time at.
func (e *Engine) pushFirstRelease(task int, m int64, at model.Time) {
	e.push(event{at: at, kind: kindRelease, op: opFirstRelease, b: int32(task), inst: m})
}

// ClockOffset returns processor p's local-clock offset from global time
// (zero when clocks are synchronized). Protocols that schedule at ABSOLUTE
// local times (PM) must add it; relative timers need not.
func (e *Engine) ClockOffset(p int) model.Duration {
	if e.cfg.ClockOffsets == nil {
		return 0
	}
	return e.cfg.ClockOffsets[p]
}

// RegisterTimer registers a protocol timer callback for this run and
// returns its id. Protocols call it once in Init and then arm instances
// with StartTimer — the pair replaces per-timer closures in the hot path.
func (e *Engine) RegisterTimer(fn TimerFunc) TimerID {
	e.timers = append(e.timers, fn)
	return TimerID(len(e.timers) - 1)
}

// StartTimer schedules the registered timer id at time at (>= now), to be
// invoked with the given dense subtask index and instance.
func (e *Engine) StartTimer(at model.Time, id TimerID, sub int, inst int64) {
	if at < e.clock {
		at = e.clock
	}
	e.push(event{at: at, kind: kindTimer, op: opTimer, a: int32(id), b: int32(sub), inst: inst})
}

// ScheduleRelease schedules the release of instance m of subtask id at time
// at (>= now). PM uses it to realize the modified-phase periodic releases.
func (e *Engine) ScheduleRelease(id model.SubtaskID, m int64, at model.Time) {
	e.scheduleReleaseDense(e.idx.IndexOf(id), m, at)
}

// scheduleReleaseDense is ScheduleRelease keyed by dense subtask index.
func (e *Engine) scheduleReleaseDense(si int, m int64, at model.Time) {
	if at < e.clock {
		at = e.clock
	}
	e.push(event{at: at, kind: kindRelease, op: opRelease, b: int32(si), inst: m})
}

// ReleaseNow releases instance m of subtask id at the current time: the job
// joins its processor's ready queue and the protocol's OnRelease hook runs.
// Instances of each subtask must be released in order; the engine panics on
// a protocol bug that violates this.
func (e *Engine) ReleaseNow(id model.SubtaskID, m int64) {
	e.release(e.idx.IndexOf(id), m)
}

// newJob takes a job from the free list, or allocates one.
func (e *Engine) newJob() *Job {
	if n := len(e.free); n > 0 {
		j := e.free[n-1]
		e.free = e.free[:n-1]
		return j
	}
	j := &Job{}
	e.jobs = append(e.jobs, j)
	return j
}

// release is ReleaseNow keyed by dense subtask index — the engine's and the
// built-in protocols' hot path.
func (e *Engine) release(si int, m int64) {
	id := e.idx.ID(si)
	if want := e.releaseCount[si]; m != want {
		panic(fmt.Sprintf("sim: out-of-order release of %v#%d (expected #%d)", id, m+1, want+1))
	}
	e.releaseCount[si] = m + 1

	t := e.clock
	info := &e.subs[si]
	demand := info.exec
	if e.cfg.ExecTime != nil {
		actual := e.cfg.ExecTime(id, m)
		if actual < 1 {
			actual = 1
		}
		if actual < demand {
			demand = actual
		}
	}
	// Field by field, not *job = Job{...}: the composite literal compiles
	// to a stack temporary copied by runtime.duffcopy. Every field is set,
	// so a recycled job keeps nothing from its previous life
	// (TestReleaseResetsRecycledJob).
	job := e.newJob()
	job.ID, job.Instance, job.Release = id, m, t
	job.Remaining, job.Completed, job.Completion = demand, false, 0
	job.idx, job.base, job.eff, job.started = int32(si), info.base, info.eff, false
	job.deadline, job.next = model.TimeInfinity, nil
	job.demand, job.segIdx, job.holding = demand, 0, -1
	job.boosted, job.boost, job.waitStart = false, 0, 0
	if e.segMode {
		job.segIdx = e.segOff[si]
	}
	if e.cfg.Scheduler == EDF {
		job.deadline = t.Add(info.local)
	}
	if id.Sub == 0 {
		e.firstRelease[id.Task].push(m, t)
		e.metrics.Tasks[id.Task].Released++
	}
	// Precedence accounting: a non-first instance released before its
	// predecessor instance completed is a protocol-induced violation
	// (possible for PM under sporadic first releases, §3.1). Dense
	// indices are chain-contiguous, so si-1 is the predecessor.
	if id.Sub > 0 && m >= e.completedThrough[si-1] {
		e.metrics.PrecedenceViolations++
		if e.trace != nil {
			e.trace.Violations = append(e.trace.Violations, Violation{
				Job:  job.Key(),
				Time: t,
			})
		}
	}
	if e.trace != nil {
		e.trace.noteRelease(job, int(info.proc))
	}
	e.metrics.subtaskAt(si).Released++

	e.cfg.Protocol.OnRelease(e, job, t)

	p := int(info.proc)
	ps := &e.procs[p]
	ps.ready.push(job)
	ps.idleNotified = false
	e.markDirty(p)
}

// markDirty queues processor p for (re)dispatch at the current instant.
func (e *Engine) markDirty(p int) {
	if !e.inDirt[p] {
		e.inDirt[p] = true
		e.dirty = append(e.dirty, p)
	}
}

// settleAll drains the dirty list, dispatching every touched processor
// until the configuration is stable at time t.
func (e *Engine) settleAll(t model.Time) {
	for len(e.dirty) > 0 {
		p := e.dirty[len(e.dirty)-1]
		e.dirty = e.dirty[:len(e.dirty)-1]
		e.inDirt[p] = false
		e.settle(p, t)
	}
}

// advance charges elapsed wall time to the running job of processor p.
func (e *Engine) advance(p int, t model.Time) {
	ps := &e.procs[p]
	if ps.running == nil || t <= ps.runStart {
		return
	}
	ps.running.Remaining -= t.Sub(ps.runStart)
	if ps.running.Remaining < 0 {
		panic(fmt.Sprintf("sim: job %v overran its demand", ps.running.Key()))
	}
	ps.runStart = t
}

// settle brings processor p to a stable dispatch decision at time t:
// finish any job that has exhausted its demand, then run the most urgent
// ready job (respecting non-preemptivity), and report an idle point if the
// processor has gone quiet.
func (e *Engine) settle(p int, t model.Time) {
	ps := &e.procs[p]
	e.advance(p, t)
	if ps.running != nil && ps.running.Remaining == 0 {
		e.finishRunning(p, t)
	}
	if e.segMode && ps.running != nil {
		e.progressRunning(p, t)
	}
	preemptive := e.sys.Procs[p].Preemptive
	if ps.running == nil {
		// startJob can decline (the job's due acquire suspended or
		// migrated it); keep trying the next ready job. On the legacy
		// path startJob always succeeds, so the loop runs at most once.
		for ps.ready.peek() != nil {
			if e.startJob(p, ps.ready.pop(), t) {
				break
			}
		}
	} else if preemptive {
		// A challenger preempts only when STRICTLY more urgent: higher
		// active priority under fixed priority (the running job is
		// protected at its ceiling-raised priority, which is what
		// makes lock holders non-preemptable by their contenders), or
		// a strictly earlier absolute deadline under EDF.
		if next := ps.ready.peek(); next != nil && e.strictlyMoreUrgent(next, ps.running) {
			e.preempt(p, t)
			for ps.ready.peek() != nil {
				if e.startJob(p, ps.ready.pop(), t) {
					break
				}
			}
		}
	}
	if ps.running == nil && ps.ready.empty() && !ps.idleNotified {
		ps.idleNotified = true
		if e.trace != nil {
			e.trace.noteIdlePoint(p, t)
		}
		e.cfg.Protocol.OnIdle(e, p, t)
		// The hook may have released work here; if so the dirty mark
		// re-queues this processor and the next settle dispatches it.
	}
}

// strictlyMoreUrgent reports whether a should preempt b under the
// configured scheduler.
func (e *Engine) strictlyMoreUrgent(a, b *Job) bool {
	if e.cfg.Scheduler == EDF {
		return a.deadline < b.deadline
	}
	return a.active() > b.active()
}

// dispatch puts job on processor p and arms its tentative completion event
// in p's slot. First dispatch acquires the job's locks, raising it to its
// effective priority for the rest of its life.
func (e *Engine) dispatch(p int, job *Job, t model.Time) {
	ps := &e.procs[p]
	if e.stats != nil {
		// The processor was necessarily idle from idleStart to t (both
		// dispatch call sites require running == nil); zero-length gaps
		// (completion and redispatch at one instant) add nothing.
		e.stats.AddIdle(p, int64(t.Sub(ps.idleStart)))
		e.stats.NoteContextSwitch()
	}
	job.started = true
	ps.running = job
	ps.runStart = t
	ps.segStart = t
	if e.segMode {
		e.armSegEvent(p, job, t)
		return
	}
	e.arm(p, t.Add(job.Remaining), opCompletion)
}

// arm bumps processor p's dispatch generation and stores its new tentative
// event in the slot, stamped from the same sequence counter as heap
// pushes. Whatever the slot held is stale by that bump; if it fell due
// within the horizon, the queue would have popped and dropped it before
// the run ended, so it is counted here as that pop to keep Metrics.Events
// and the per-op counters unchanged.
func (e *Engine) arm(p int, at model.Time, op int8) {
	ps := &e.procs[p]
	ps.gen++
	if old := &e.slots.s[p]; e.slots.live(p) && old.key.at <= e.cfg.Horizon {
		e.eventsRun++
		if e.stats != nil {
			e.stats.CountEvent(int(old.op))
		}
	}
	e.seq++
	e.slots.set(p, slot{key: slotKey{at: at, seq: e.seq}, gen: ps.gen, op: op})
}

// preempt pushes the running job of p back into the ready queue.
func (e *Engine) preempt(p int, t model.Time) {
	ps := &e.procs[p]
	if e.trace != nil && t > ps.segStart {
		e.trace.noteSegment(p, ps.running.Key(), ps.segStart, t)
	}
	ps.ready.push(ps.running)
	ps.running = nil
	ps.gen++
	ps.idleStart = t
	e.metrics.Preemptions++
	if e.stats != nil {
		e.stats.NotePreemption()
	}
}

// finishRunning completes the running job of p at time t: bookkeeping,
// trace, and the protocol's OnComplete hook (which may release successors
// anywhere in the system). The job returns to the free list afterwards.
func (e *Engine) finishRunning(p int, t model.Time) {
	ps := &e.procs[p]
	job := ps.running
	ps.running = nil
	ps.gen++
	ps.idleStart = t
	job.Completed = true
	job.Completion = t
	si := int(job.idx)
	// Per-subtask completions are in instance order (earlier instances
	// always dispatch ahead of later ones of the same subtask), which is
	// what lets a watermark replace a completion map; assert it.
	if e.completedThrough[si] != job.Instance {
		panic(fmt.Sprintf("sim: out-of-order completion of %v (watermark #%d)",
			job.Key(), e.completedThrough[si]+1))
	}
	e.completedThrough[si] = job.Instance + 1
	if e.segMode && job.holding >= 0 {
		// A critical section running to the end of the execution: the
		// resource is released at completion.
		e.releaseAtCompletion(job, t)
	}
	if e.trace != nil {
		if t > ps.segStart {
			e.trace.noteSegment(p, job.Key(), ps.segStart, t)
		}
		e.trace.noteCompletion(job)
	}
	e.recordCompletionMetrics(job, t)
	e.cfg.Protocol.OnComplete(e, job, t)
	e.free = append(e.free, job)
}

// recordCompletionMetrics updates per-subtask response statistics and, when
// job ends a task instance, the task's end-to-end statistics.
func (e *Engine) recordCompletionMetrics(job *Job, t model.Time) {
	si := int(job.idx)
	sm := e.metrics.subtaskAt(si)
	resp := t.Sub(job.Release)
	sm.Completed++
	sm.SumResponse += int64(resp)
	if resp > sm.MaxResponse {
		sm.MaxResponse = resp
	}

	if !e.subs[si].isLast {
		return
	}
	rel, ok := e.firstRelease[job.ID.Task].consume(job.Instance)
	if !ok {
		// The chain outran its own first subtask — possible only when a
		// protocol violates precedence (PM under sporadic first
		// releases). There is no EER origin; the violation was already
		// counted at release time.
		return
	}
	eer := t.Sub(rel)
	tm := &e.metrics.Tasks[job.ID.Task]
	tm.Completed++
	tm.SumEER += int64(eer)
	if e.cfg.CollectSamples {
		tm.eerSamples = append(tm.eerSamples, float64(eer))
	}
	if eer > tm.MaxEER {
		tm.MaxEER = eer
	}
	if eer > e.sys.Tasks[job.ID.Task].Deadline {
		tm.DeadlineMisses++
	}
	if tm.Completed > 1 && job.Instance == tm.lastInstance+1 {
		jitter := eer - tm.lastEER
		if jitter < 0 {
			jitter = -jitter
		}
		if jitter > tm.MaxOutputJitter {
			tm.MaxOutputJitter = jitter
		}
	}
	tm.lastEER = eer
	tm.lastInstance = job.Instance
}

// JobCompleted reports whether instance m of subtask id has completed. MPM
// uses it from timers to detect overruns.
func (e *Engine) JobCompleted(id model.SubtaskID, m int64) bool {
	return m < e.completedThrough[e.idx.IndexOf(id)]
}

// jobCompletedDense is JobCompleted keyed by dense index.
func (e *Engine) jobCompletedDense(si int, m int64) bool {
	return m < e.completedThrough[si]
}

// CountOverrun increments the overrun counter (MPM timers firing before
// their instance completed — a sign the supplied bounds were wrong).
func (e *Engine) CountOverrun() { e.metrics.Overruns++ }

// closeOpenSegments flushes the in-progress execution segments at the
// horizon so traces account for partially executed jobs.
func (e *Engine) closeOpenSegments() {
	for p := range e.procs {
		ps := &e.procs[p]
		if ps.running != nil && e.cfg.Horizon > ps.segStart {
			e.trace.noteSegment(p, ps.running.Key(), ps.segStart, e.cfg.Horizon)
		}
	}
}
