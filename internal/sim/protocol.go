package sim

import (
	"fmt"

	"rtsync/internal/model"
)

// Protocol is a synchronization protocol: it decides when instances of
// non-first subtasks are released. The engine releases instances of first
// subtasks (they are periodic by the task model) and invokes the hooks
// below; hooks act by calling the engine's ReleaseNow and ScheduleRelease,
// and arm timers with StartTimer on a callback registered in Init through
// RegisterTimer.
type Protocol interface {
	// Name returns the protocol's short name ("DS", "PM", "MPM", "RG").
	Name() string
	// Init prepares protocol state before time 0. PM uses it to schedule
	// the periodic releases of later subtasks from their modified phases.
	Init(e *Engine) error
	// OnRelease fires whenever any job is released. RG applies rule 1
	// here; MPM arms the per-instance timer; PM chains the next periodic
	// release of the same subtask.
	OnRelease(e *Engine, j *Job, t model.Time)
	// OnComplete fires when a job finishes. DS and RG release (or hold)
	// the successor instance here.
	OnComplete(e *Engine, j *Job, t model.Time)
	// OnIdle fires when a processor transitions to an idle point: no
	// running job and an empty ready queue. RG applies rule 2 here.
	OnIdle(e *Engine, proc int, t model.Time)
	// Overhead describes the protocol's §3.3 implementation costs.
	Overhead() Overhead
}

// Overhead summarizes §3.3's implementation-complexity comparison: the
// interrupt support a protocol requires, the interrupts per subtask
// instance, the per-subtask state, and whether global clock synchronization
// is needed.
type Overhead struct {
	// SyncInterrupt is true when the protocol needs inter-processor
	// synchronization signals (DS, MPM, RG).
	SyncInterrupt bool
	// TimerInterrupt is true when the protocol needs local timer
	// interrupts (PM, MPM, RG).
	TimerInterrupt bool
	// InterruptsPerInstance counts interrupts per subtask instance
	// (1 for DS and PM, 2 for MPM and RG).
	InterruptsPerInstance int
	// VariablesPerSubtask counts per-subtask scheduler variables
	// (0 for DS; 1 for PM/MPM — the response-time bound; 1 for RG — the
	// release guard).
	VariablesPerSubtask int
	// NeedsGlobalClock is true only for PM, which releases subtasks at
	// absolute phases and so requires a centralized clock or strict
	// clock synchronization.
	NeedsGlobalClock bool
}

// Bounds maps each subtask to the upper bound on its response time that the
// PM and MPM protocols need at run time (the "more serious limitation" of
// §3.1: those protocols depend on schedulability-analysis results). Use
// analysis.AnalyzePM to compute them.
type Bounds map[model.SubtaskID]model.Duration

// boundsFor validates that b covers every subtask of s with a finite bound.
func (b Bounds) validate(s *model.System, protocol string) error {
	for ti := range s.Tasks {
		for j := range s.Tasks[ti].Subtasks {
			id := model.SubtaskID{Task: ti, Sub: j}
			d, ok := b[id]
			if !ok {
				return fmt.Errorf("%s: missing response-time bound for %v", protocol, id)
			}
			if d.IsInfinite() {
				return fmt.Errorf("%s: response-time bound for %v is infinite", protocol, id)
			}
			if d < s.Tasks[ti].Subtasks[j].Exec {
				return fmt.Errorf("%s: bound %v for %v is below its execution time %v",
					protocol, d, id, s.Tasks[ti].Subtasks[j].Exec)
			}
		}
	}
	return nil
}
