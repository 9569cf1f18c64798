package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rtsync/internal/model"
)

// misbehavingProtocol releases instances out of order to provoke the
// engine's protocol-bug detection.
type misbehavingProtocol struct{ DS }

func (*misbehavingProtocol) Name() string { return "broken" }

func (*misbehavingProtocol) OnComplete(e *Engine, j *Job, t model.Time) {
	task := &e.System().Tasks[j.ID.Task]
	if j.ID.Sub+1 < len(task.Subtasks) {
		// Skip ahead to instance m+1 without releasing m: out of order.
		e.ReleaseNow(model.SubtaskID{Task: j.ID.Task, Sub: j.ID.Sub + 1}, j.Instance+1)
	}
}

func TestEngineDetectsOutOfOrderReleases(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-order release did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "out-of-order release") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	_, _ = Run(model.Example2(), Config{Protocol: &misbehavingProtocol{}, Horizon: 60})
}

// pastTimerProtocol is DS that also arms a registered timer five ticks in
// the past from every completion; the engine must clamp each one to "now"
// rather than travel backwards.
type pastTimerProtocol struct {
	DS
	timer        TimerID
	armed, fired []model.Time
}

func (p *pastTimerProtocol) Name() string { return "past-timer" }

func (p *pastTimerProtocol) Init(e *Engine) error {
	p.timer = e.RegisterTimer(func(e *Engine, sub int, inst int64, now model.Time) {
		p.fired = append(p.fired, now)
	})
	return nil
}

func (p *pastTimerProtocol) OnComplete(e *Engine, j *Job, t model.Time) {
	p.armed = append(p.armed, t)
	e.StartTimer(t-5, p.timer, j.Dense(), j.Instance)
	p.DS.OnComplete(e, j, t)
}

func TestStartTimerClampsToNow(t *testing.T) {
	p := &pastTimerProtocol{}
	out, err := Run(model.Example2(), Config{Protocol: p, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.armed) == 0 {
		t.Fatal("no completion armed a timer")
	}
	// Every completion lies within the horizon, so every clamped timer
	// fires, at the very instant it was armed.
	if !reflect.DeepEqual(p.fired, p.armed) {
		t.Errorf("timers fired at %v, armed at %v", p.fired, p.armed)
	}
	if out.Metrics.TotalCompleted() == 0 {
		t.Error("simulation stalled")
	}
}

// pastReleaseProtocol is DS with every successor released through
// ScheduleRelease at a time five ticks before the predecessor completed.
type pastReleaseProtocol struct {
	DS
	completedAt map[Key]model.Time // successor job -> predecessor completion
	released    int
	wrong       []string
}

func (p *pastReleaseProtocol) Name() string { return "past-release" }

func (p *pastReleaseProtocol) OnComplete(e *Engine, j *Job, t model.Time) {
	task := &e.System().Tasks[j.ID.Task]
	if j.ID.Sub+1 < len(task.Subtasks) {
		succ := model.SubtaskID{Task: j.ID.Task, Sub: j.ID.Sub + 1}
		p.completedAt[Key{ID: succ, Instance: j.Instance}] = t
		e.ScheduleRelease(succ, j.Instance, t-5)
	}
}

func (p *pastReleaseProtocol) OnRelease(e *Engine, j *Job, t model.Time) {
	if j.ID.Sub == 0 {
		return
	}
	p.released++
	if want := p.completedAt[j.Key()]; j.Release != want || t != want || e.Now() != want {
		p.wrong = append(p.wrong, fmt.Sprintf("%v released at %v (hook t=%v, now=%v), predecessor completed at %v",
			j.Key(), j.Release, t, e.Now(), want))
	}
}

func TestScheduleReleaseClampsToNow(t *testing.T) {
	// ScheduleRelease with a past time must release at the current
	// instant — the predecessor's completion — preserving instance order.
	p := &pastReleaseProtocol{completedAt: make(map[Key]model.Time)}
	out, err := Run(model.Example2(), Config{Protocol: p, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	if p.released == 0 {
		t.Fatal("no successor was released")
	}
	for _, w := range p.wrong {
		t.Error(w)
	}
	if out.Metrics.TotalCompleted() == 0 {
		t.Error("simulation stalled")
	}
}

func TestEngineRunTwiceIsolated(t *testing.T) {
	// New clones the system: mutating it after construction must not
	// affect the run.
	s := model.Example2()
	e, err := New(s, Config{Protocol: NewDS(), Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	s.Tasks[0].Subtasks[0].Exec = 999 // sabotage the original
	out, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics.Tasks[0].MaxEER != 2 {
		t.Errorf("engine observed the mutation: max EER %v", out.Metrics.Tasks[0].MaxEER)
	}
}

func TestEngineAccessors(t *testing.T) {
	e, err := New(model.Example2(), Config{Protocol: NewDS(), Horizon: 42})
	if err != nil {
		t.Fatal(err)
	}
	if e.Horizon() != 42 {
		t.Errorf("Horizon = %v", e.Horizon())
	}
	if e.Now() != 0 {
		t.Errorf("Now before run = %v", e.Now())
	}
	if e.System() == nil {
		t.Error("System nil")
	}
	if e.ClockOffset(0) != 0 {
		t.Errorf("default clock offset = %v", e.ClockOffset(0))
	}
}
