package obs

// NumEventOps mirrors the simulator's event-op enum (completion, timer,
// release, first-release, segment). sim pins the correspondence with
// compile-time assertions so the two cannot drift silently.
const NumEventOps = 5

// eventOpNames names the ops in enum order for snapshots.
var eventOpNames = [NumEventOps]string{
	"completion", "timer", "release", "first_release", "segment",
}

// MaxProcs bounds the per-processor counter bank. Processors beyond the
// bank accumulate into the last slot; the paper's systems use 4, so the
// clamp never bites in practice.
const MaxProcs = 32

// SimStats collects engine counters across one or more simulation runs.
// It is shared state: a sweep attaches one SimStats to every worker's
// engine, so all fields are padded atomics. The engine guards every hook
// with a nil check on the concrete *SimStats — a nil SimStats costs one
// predictable branch per hook and nothing else.
type SimStats struct {
	events          [NumEventOps]Counter
	preemptions     Counter
	contextSwitches Counter
	rgStalls        Counter
	queueHighWater  Counter
	runs            Counter
	idle            [MaxProcs]Counter
	stall           Histogram

	lockAcquisitions Counter
	lockSuspensions  Counter
	priorityBoosts   Counter
	lockStall        Histogram
}

// NewSimStats returns a zeroed counter bank.
func NewSimStats() *SimStats { return &SimStats{} }

// CountEvent counts one popped event of the given op (out-of-range ops are
// dropped rather than corrupting a neighbour). The simulator also counts a
// stale tentative event here when a re-arm overwrites it within the
// horizon — the pop the event queue would otherwise have made.
func (s *SimStats) CountEvent(op int) {
	if uint(op) < NumEventOps {
		s.events[op].Inc()
	}
}

// NotePreemption counts one job displaced from its processor.
func (s *SimStats) NotePreemption() { s.preemptions.Inc() }

// NoteContextSwitch counts one dispatch (a job taking a processor).
func (s *SimStats) NoteContextSwitch() { s.contextSwitches.Inc() }

// NoteRGStall records a synchronization signal that the Release Guard held
// for ticks > 0 before releasing the successor.
func (s *SimStats) NoteRGStall(ticks int64) {
	s.rgStalls.Inc()
	s.stall.Observe(ticks)
}

// NoteLockAcquisition counts one critical-section entry (local or global).
func (s *SimStats) NoteLockAcquisition() { s.lockAcquisitions.Inc() }

// NoteLockSuspension records a job suspended on a busy global resource for
// ticks >= 0 before its request was granted.
func (s *SimStats) NoteLockSuspension(ticks int64) {
	s.lockSuspensions.Inc()
	s.lockStall.Observe(ticks)
}

// NotePriorityBoost counts one priority-boost activation: a critical
// section raising its holder above its base priority.
func (s *SimStats) NotePriorityBoost() { s.priorityBoosts.Inc() }

// ObserveQueueDepth raises the event-queue occupancy high-water mark (the
// event heap's pending timers and releases plus the simulator's armed
// per-processor tentative slots).
func (s *SimStats) ObserveQueueDepth(depth int64) { s.queueHighWater.Max(depth) }

// AddIdle charges ticks of idle time to processor p (clamped into the
// fixed bank).
func (s *SimStats) AddIdle(p int, ticks int64) {
	if p >= MaxProcs {
		p = MaxProcs - 1
	}
	if p >= 0 {
		s.idle[p].Add(ticks)
	}
}

// NoteRun counts one completed simulation run.
func (s *SimStats) NoteRun() { s.runs.Inc() }

// Runs returns the number of completed runs so far.
func (s *SimStats) Runs() int64 { return s.runs.Load() }

// SimSnapshot is a point-in-time plain-value view of a SimStats, shaped
// for JSON (manifests, the expvar endpoint) and tests.
type SimSnapshot struct {
	// EventsByOp maps event-op name to pop count.
	EventsByOp map[string]int64 `json:"events_by_op"`
	// EventsTotal sums EventsByOp.
	EventsTotal int64 `json:"events_total"`
	// Preemptions counts jobs displaced mid-execution.
	Preemptions int64 `json:"preemptions"`
	// ContextSwitches counts dispatches.
	ContextSwitches int64 `json:"context_switches"`
	// ReleaseGuardStalls counts signals the RG protocol held past their
	// arrival; StallTicks is the distribution of hold durations.
	ReleaseGuardStalls int64              `json:"release_guard_stalls"`
	StallTicks         *HistogramSnapshot `json:"stall_ticks,omitempty"`
	// EventQueueHighWater is the deepest the event queue ever got
	// (event-heap occupancy plus armed tentative slots).
	EventQueueHighWater int64 `json:"event_queue_high_water"`
	// Runs counts completed simulation runs.
	Runs int64 `json:"runs"`
	// IdleTicksPerProc is idle time per processor index, trimmed of
	// trailing unused slots.
	IdleTicksPerProc []int64 `json:"idle_ticks_per_proc,omitempty"`
	// LockAcquisitions counts critical-section entries (local or global);
	// PriorityBoosts counts the subset that raised the holder above its
	// base priority.
	LockAcquisitions int64 `json:"lock_acquisitions,omitempty"`
	PriorityBoosts   int64 `json:"priority_boosts,omitempty"`
	// LockSuspensions counts jobs suspended on a busy global resource;
	// LockStallTicks is the distribution of suspension durations.
	LockSuspensions int64              `json:"lock_suspensions,omitempty"`
	LockStallTicks  *HistogramSnapshot `json:"lock_stall_ticks,omitempty"`
}

// Snapshot captures the current counter values. Concurrent writers may
// advance counters between loads; each individual value is exact.
func (s *SimStats) Snapshot() SimSnapshot {
	snap := SimSnapshot{
		EventsByOp:          make(map[string]int64, NumEventOps),
		Preemptions:         s.preemptions.Load(),
		ContextSwitches:     s.contextSwitches.Load(),
		ReleaseGuardStalls:  s.rgStalls.Load(),
		EventQueueHighWater: s.queueHighWater.Load(),
		Runs:                s.runs.Load(),
	}
	for op, name := range eventOpNames {
		n := s.events[op].Load()
		snap.EventsByOp[name] = n
		snap.EventsTotal += n
	}
	if snap.ReleaseGuardStalls > 0 {
		h := s.stall.Snapshot()
		snap.StallTicks = &h
	}
	snap.LockAcquisitions = s.lockAcquisitions.Load()
	snap.PriorityBoosts = s.priorityBoosts.Load()
	snap.LockSuspensions = s.lockSuspensions.Load()
	if snap.LockSuspensions > 0 {
		h := s.lockStall.Snapshot()
		snap.LockStallTicks = &h
	}
	last := -1
	for p := 0; p < MaxProcs; p++ {
		if s.idle[p].Load() != 0 {
			last = p
		}
	}
	if last >= 0 {
		snap.IdleTicksPerProc = make([]int64, last+1)
		for p := 0; p <= last; p++ {
			snap.IdleTicksPerProc[p] = s.idle[p].Load()
		}
	}
	return snap
}
