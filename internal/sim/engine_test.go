package sim

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/obs"
)

// example2Bounds computes the SA/PM response-time bounds PM and MPM need.
func example2Bounds(t *testing.T, s *model.System) Bounds {
	t.Helper()
	res, err := analysis.AnalyzePM(s, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := make(Bounds, len(res.Bounds))
	for i, sb := range res.Bounds {
		id := res.Index.ID(i)
		b[id] = sb.Response
	}
	return b
}

func runExample2(t *testing.T, p Protocol, horizon model.Time) *Outcome {
	t.Helper()
	out, err := Run(model.Example2(), Config{Protocol: p, Horizon: horizon, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if problems := Validate(out.Trace, ValidateOptions{CheckPrecedence: true}); len(problems) > 0 {
		t.Fatalf("trace invalid under %s: %v", p.Name(), problems)
	}
	return out
}

// TestDSExample2Figure3 replays the paper's Figure 3: under DS, instances
// of T2,2 are released at 4, 8, 16, 20, 28, and T3's first instance misses
// its deadline (completes at 12, a response of 8 > deadline 6).
func TestDSExample2Figure3(t *testing.T) {
	out := runExample2(t, NewDS(), 30)
	tr := out.Trace

	t22 := model.SubtaskID{Task: 1, Sub: 1}
	gotRel := tr.ReleasesOf(t22)
	wantRel := []model.Time{4, 8, 16, 20, 28}
	if !reflect.DeepEqual(gotRel, wantRel) {
		t.Errorf("T2,2 releases = %v, want %v", gotRel, wantRel)
	}

	t3 := model.SubtaskID{Task: 2, Sub: 0}
	c, ok := tr.CompletionOf(t3, 0)
	if !ok || c != 12 {
		t.Errorf("T3#1 completion = %v (%v), want 12", c, ok)
	}
	if out.Metrics.Tasks[2].DeadlineMisses == 0 {
		t.Error("T3 should miss a deadline under DS")
	}
	if out.Metrics.Tasks[2].MaxEER != 8 {
		t.Errorf("T3 max EER = %v, want 8", out.Metrics.Tasks[2].MaxEER)
	}
	// The on-P1 schedule: T1 runs [0,2), T2,1 [2,4), etc.
	segs := tr.SegmentsOn(0)
	if len(segs) == 0 || segs[0].Start != 0 || segs[0].End != 2 ||
		segs[0].Job.ID != (model.SubtaskID{Task: 0, Sub: 0}) {
		t.Errorf("first P1 segment = %+v, want T1 [0,2)", segs[0])
	}
}

// TestPMExample2Figure5 replays Figure 5: under PM, T2,2 is released
// periodically from phase 4, so T3's first instance completes at 9 and
// meets its deadline.
func TestPMExample2Figure5(t *testing.T) {
	s := model.Example2()
	out := runExample2(t, NewPM(example2Bounds(t, s)), 30)
	tr := out.Trace

	t22 := model.SubtaskID{Task: 1, Sub: 1}
	gotRel := tr.ReleasesOf(t22)
	wantRel := []model.Time{4, 10, 16, 22, 28}
	if !reflect.DeepEqual(gotRel, wantRel) {
		t.Errorf("T2,2 releases = %v, want %v", gotRel, wantRel)
	}

	t3 := model.SubtaskID{Task: 2, Sub: 0}
	c, ok := tr.CompletionOf(t3, 0)
	if !ok || c != 9 {
		t.Errorf("T3#1 completion = %v (%v), want 9", c, ok)
	}
	if out.Metrics.Tasks[2].DeadlineMisses != 0 {
		t.Error("T3 should meet every deadline under PM")
	}
	// EER of T2's instances is constantly 7 here (release at 0, 6, ...;
	// completion at 7, 13, ...): jitter 0, no violation of the PM
	// bracket [lower, upper] = [7, 7].
	if got := out.Metrics.Tasks[1].MaxOutputJitter; got != 0 {
		t.Errorf("T2 output jitter under PM = %v, want 0", got)
	}
	if got := out.Metrics.Tasks[1].MaxEER; got != 7 {
		t.Errorf("T2 max EER under PM = %v, want 7", got)
	}
}

// TestMPMExample2MatchesPM verifies §3.1's claim that "under the ideal
// conditions ... the PM protocol and the MPM protocol produce identical
// schedules": same release times, same completions, same segments.
func TestMPMExample2MatchesPM(t *testing.T) {
	s := model.Example2()
	b := example2Bounds(t, s)
	pm := runExample2(t, NewPM(b), 30)
	mpm := runExample2(t, NewMPM(b), 30)

	for _, id := range s.SubtaskIDs() {
		if !reflect.DeepEqual(pm.Trace.ReleasesOf(id), mpm.Trace.ReleasesOf(id)) {
			t.Errorf("%v releases differ: PM %v, MPM %v",
				id, pm.Trace.ReleasesOf(id), mpm.Trace.ReleasesOf(id))
		}
	}
	if !reflect.DeepEqual(pm.Trace.SegmentsOn(0), mpm.Trace.SegmentsOn(0)) ||
		!reflect.DeepEqual(pm.Trace.SegmentsOn(1), mpm.Trace.SegmentsOn(1)) {
		t.Error("PM and MPM schedules differ under ideal conditions")
	}
	if mpm.Metrics.Overruns != 0 {
		t.Errorf("MPM overruns = %d, want 0 (bounds are sound)", mpm.Metrics.Overruns)
	}
}

// TestRGExample2Figure7 replays Figure 7: like DS up to time 8, but the
// second instance of T2,2 is held by its release guard (g = 10), letting T3
// finish at 9 and meet its deadline; the completion makes 9 an idle point,
// rule 2 resets the guard, and T2,2#2 is released at 9.
func TestRGExample2Figure7(t *testing.T) {
	out := runExample2(t, NewRG(), 30)
	tr := out.Trace

	t22 := model.SubtaskID{Task: 1, Sub: 1}
	rel := tr.ReleasesOf(t22)
	if len(rel) < 2 || rel[0] != 4 || rel[1] != 9 {
		t.Fatalf("T2,2 releases = %v, want [4 9 ...]", rel)
	}

	t3 := model.SubtaskID{Task: 2, Sub: 0}
	c, ok := tr.CompletionOf(t3, 0)
	if !ok || c != 9 {
		t.Errorf("T3#1 completion = %v (%v), want 9", c, ok)
	}
	if out.Metrics.Tasks[2].DeadlineMisses != 0 {
		t.Error("T3 should meet every deadline under RG")
	}

	// The idle point at 9 on P2 must be recorded (it is what releases
	// T2,2#2 early).
	if !idlePointIn(tr.IdlePoints[1], 8, 9) {
		t.Errorf("no idle point at 9 on P2; got %v", tr.IdlePoints[1])
	}

	// §3.2: T2's second instance has EER 6, one tick shorter than PM's 7.
	t22c, ok := tr.CompletionOf(t22, 1)
	if !ok || t22c != 12 {
		t.Errorf("T2,2#2 completion = %v (%v), want 12", t22c, ok)
	}

	// RG spacing invariant holds on this trace.
	if problems := Validate(tr, ValidateOptions{CheckPrecedence: true, CheckRGSpacing: true}); len(problems) > 0 {
		t.Errorf("RG trace invalid: %v", problems)
	}
}

// TestRGRule1OnlyHoldsUntilGuard shows the ablation: without rule 2, T2,2's
// second instance waits for the guard at 10 instead of releasing at the
// idle point 9.
func TestRGRule1OnlyHoldsUntilGuard(t *testing.T) {
	out := runExample2(t, NewRGRule1Only(), 30)
	rel := out.Trace.ReleasesOf(model.SubtaskID{Task: 1, Sub: 1})
	if len(rel) < 2 || rel[0] != 4 || rel[1] != 10 {
		t.Fatalf("T2,2 releases = %v, want [4 10 ...]", rel)
	}
	// T3 still meets its deadline (rule 1 is what protects it).
	if out.Metrics.Tasks[2].DeadlineMisses != 0 {
		t.Error("T3 should meet deadlines under RG rule 1 alone")
	}
}

// TestAverageEEROrderingExample2 checks the paper's headline ordering on
// Example 2: avg EER(DS) <= avg EER(RG) <= avg EER(PM) for task T2 (the
// only chain).
func TestAverageEEROrderingExample2(t *testing.T) {
	s := model.Example2()
	b := example2Bounds(t, s)
	ds := runExample2(t, NewDS(), 600)
	rg := runExample2(t, NewRG(), 600)
	pm := runExample2(t, NewPM(b), 600)

	dsAvg := ds.Metrics.Tasks[1].AvgEER()
	rgAvg := rg.Metrics.Tasks[1].AvgEER()
	pmAvg := pm.Metrics.Tasks[1].AvgEER()
	if !(dsAvg <= rgAvg+1e-9 && rgAvg <= pmAvg+1e-9) {
		t.Errorf("avg EER ordering violated: DS %v, RG %v, PM %v", dsAvg, rgAvg, pmAvg)
	}
}

func TestSimulatedMaxEERWithinAnalyzedBounds(t *testing.T) {
	// Soundness: simulated worst EER <= analyzed bound, per protocol.
	s := model.Example2()
	b := example2Bounds(t, s)
	pmRes, err := analysis.AnalyzePM(s, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dsRes, err := analysis.AnalyzeDS(s, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	protocols := []struct {
		p      Protocol
		bounds []model.Duration
	}{
		{NewDS(), dsRes.TaskEER},
		{NewPM(b), pmRes.TaskEER},
		{NewMPM(b), pmRes.TaskEER},
		{NewRG(), pmRes.TaskEER},
		{NewRGRule1Only(), pmRes.TaskEER},
	}
	for _, tc := range protocols {
		out := runExample2(t, tc.p, 1200)
		for i := range s.Tasks {
			if got := out.Metrics.Tasks[i].MaxEER; model.Duration(got) > tc.bounds[i] {
				t.Errorf("%s: task %d max EER %v exceeds analyzed bound %v",
					tc.p.Name(), i, got, tc.bounds[i])
			}
		}
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	s := model.Example2()
	if _, err := New(s, Config{Horizon: 10}); err == nil {
		t.Error("missing protocol accepted")
	}
	if _, err := New(s, Config{Protocol: NewDS()}); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := s.Clone()
	bad.Tasks[0].Period = -1
	if _, err := New(bad, Config{Protocol: NewDS(), Horizon: 10}); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestEngineEventBudget(t *testing.T) {
	s := model.Example2()
	_, err := Run(s, Config{Protocol: NewDS(), Horizon: 100000, MaxEvents: 10})
	if !errors.Is(err, ErrEventBudget) {
		t.Errorf("err = %v, want ErrEventBudget", err)
	}
}

func TestPMRequiresFiniteBounds(t *testing.T) {
	s := model.Example2()
	b := example2Bounds(t, s)
	b[model.SubtaskID{Task: 1, Sub: 0}] = model.Infinite
	if _, err := Run(s, Config{Protocol: NewPM(b), Horizon: 100}); err == nil {
		t.Error("PM with infinite bound accepted")
	}
	delete(b, model.SubtaskID{Task: 1, Sub: 0})
	if _, err := Run(s, Config{Protocol: NewPM(b), Horizon: 100}); err == nil {
		t.Error("PM with missing bound accepted")
	}
	b[model.SubtaskID{Task: 1, Sub: 0}] = 1 // below exec 2
	if _, err := Run(s, Config{Protocol: NewMPM(b), Horizon: 100}); err == nil {
		t.Error("MPM with bound below exec accepted")
	}
}

func TestMetricsBasics(t *testing.T) {
	out := runExample2(t, NewDS(), 60)
	m := out.Metrics
	// T1 (period 4, phase 0): released at 0,4,...,60 -> 16 releases.
	if got := m.Tasks[0].Released; got != 16 {
		t.Errorf("T1 released = %d, want 16", got)
	}
	if m.TotalCompleted() == 0 {
		t.Error("no completions recorded")
	}
	if m.Events == 0 || m.Horizon != 60 {
		t.Errorf("metrics bookkeeping wrong: events=%d horizon=%v", m.Events, m.Horizon)
	}
	// Preemptions occur in Figure 3's schedule (T3 preempted by T2,2).
	if m.Preemptions == 0 {
		t.Error("expected preemptions under DS")
	}
	// Subtask aggregates present for every subtask.
	s := model.Example2()
	for _, id := range s.SubtaskIDs() {
		sm := m.Subtasks[id]
		if sm == nil || sm.Released == 0 {
			t.Errorf("subtask metrics missing for %v", id)
		}
		if sm.AvgResponse() <= 0 {
			t.Errorf("avg response for %v = %v", id, sm.AvgResponse())
		}
	}
}

func TestTaskMetricsAvgEERZeroWhenNoCompletions(t *testing.T) {
	tm := TaskMetrics{}
	if tm.AvgEER() != 0 {
		t.Error("AvgEER of empty metrics should be 0")
	}
	sm := SubtaskMetrics{}
	if sm.AvgResponse() != 0 {
		t.Error("AvgResponse of empty metrics should be 0")
	}
}

func TestNonPreemptiveProcessor(t *testing.T) {
	// lo (prio 1) starts at 0 on a non-preemptive link; hi (prio 2)
	// arrives at 1 and must wait for lo to finish at 5.
	b := model.NewBuilder()
	bus := b.AddLink("can")
	b.AddTask("lo", 100, 0).Subtask(bus, 5, 1).Done()
	b.AddTask("hi", 100, 1).Subtask(bus, 2, 2).Done()
	s := b.MustBuild()
	out, err := Run(s, Config{Protocol: NewDS(), Horizon: 50, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := out.Trace.CompletionOf(model.SubtaskID{Task: 1, Sub: 0}, 0)
	if !ok || c != 7 {
		t.Errorf("hi completion = %v (%v), want 7 (blocked by lo)", c, ok)
	}
	if out.Metrics.Preemptions != 0 {
		t.Error("non-preemptive processor must never preempt")
	}
	// On a preemptive processor, hi would complete at 3 instead.
	s2 := s.Clone()
	s2.Procs[0].Preemptive = true
	out2, err := Run(s2, Config{Protocol: NewDS(), Horizon: 50, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	c2, ok := out2.Trace.CompletionOf(model.SubtaskID{Task: 1, Sub: 0}, 0)
	if !ok || c2 != 3 {
		t.Errorf("hi completion on preemptive proc = %v (%v), want 3", c2, ok)
	}
}

func TestPMPrecedenceViolationUnderSporadicReleases(t *testing.T) {
	// §3.1: "if the inter-release time of the first subtask is greater
	// than the period ... the protocol does not work correctly". Delay
	// every first release by 3 extra ticks; PM's later subtasks march on
	// schedule and outrun their predecessors. MPM and RG stay correct.
	s := model.Example2()
	b := example2Bounds(t, s)
	delay := func(task int, m int64) model.Duration { return 3 }

	pmOut, err := Run(s, Config{Protocol: NewPM(b), Horizon: 400, FirstReleaseDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	if pmOut.Metrics.PrecedenceViolations == 0 {
		t.Error("PM under sporadic first releases should violate precedence")
	}

	for _, p := range []Protocol{NewMPM(b), NewRG(), NewDS()} {
		out, err := Run(s, Config{Protocol: p, Horizon: 400, FirstReleaseDelay: delay, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Metrics.PrecedenceViolations != 0 {
			t.Errorf("%s under sporadic releases produced %d violations",
				p.Name(), out.Metrics.PrecedenceViolations)
		}
		if problems := Validate(out.Trace, ValidateOptions{CheckPrecedence: true}); len(problems) > 0 {
			t.Errorf("%s trace invalid: %v", p.Name(), problems)
		}
	}
}

func TestFirstReleaseDelayNegativeClamped(t *testing.T) {
	s := model.Example2()
	out, err := Run(s, Config{
		Protocol:          NewDS(),
		Horizon:           100,
		FirstReleaseDelay: func(int, int64) model.Duration { return -5 },
		Trace:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Negative delays clamp to zero: releases stay strictly periodic.
	rel := out.Trace.ReleasesOf(model.SubtaskID{Task: 0, Sub: 0})
	for m := 1; m < len(rel); m++ {
		if rel[m].Sub(rel[m-1]) != 4 {
			t.Fatalf("T1 inter-release %v, want 4", rel[m].Sub(rel[m-1]))
		}
	}
}

func TestOverheadMetadata(t *testing.T) {
	tests := []struct {
		p    Protocol
		want Overhead
	}{
		{NewDS(), Overhead{SyncInterrupt: true, InterruptsPerInstance: 1}},
		{NewPM(nil), Overhead{TimerInterrupt: true, InterruptsPerInstance: 1, VariablesPerSubtask: 1, NeedsGlobalClock: true}},
		{NewMPM(nil), Overhead{SyncInterrupt: true, TimerInterrupt: true, InterruptsPerInstance: 2, VariablesPerSubtask: 1}},
		{NewRG(), Overhead{SyncInterrupt: true, TimerInterrupt: true, InterruptsPerInstance: 2, VariablesPerSubtask: 1}},
	}
	for _, tt := range tests {
		if got := tt.p.Overhead(); got != tt.want {
			t.Errorf("%s overhead = %+v, want %+v", tt.p.Name(), got, tt.want)
		}
	}
	names := []string{NewDS().Name(), NewPM(nil).Name(), NewMPM(nil).Name(), NewRG().Name(), NewRGRule1Only().Name()}
	want := []string{"DS", "PM", "MPM", "RG", "RG1"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("names = %v, want %v", names, want)
	}
}

// TestStaleOverwriteCounting pins how a tentative completion overwritten by
// a preemption is counted. One processor: L (exec 10, phase 0) starts at 0
// with its completion armed for 10; H (exec 3, phase 2, higher priority)
// preempts it at 2, overwriting that slot; H completes at 5 and L resumes,
// re-armed for 13. The queue used to pop the stale completion at 10 as a
// no-op, so it counts as one event exactly when 10 is within the horizon.
// Both periods put every later release past the horizon.
func TestStaleOverwriteCounting(t *testing.T) {
	b := model.NewBuilder()
	p := b.AddProcessor("P")
	b.AddTask("L", 100, 0).Subtask(p, 10, 1).Done()
	b.AddTask("H", 100, 2).Subtask(p, 3, 2).Done()
	sys := b.MustBuild()

	for _, tc := range []struct {
		name    string
		horizon model.Time
		// events: the two first releases, H's completion at 5, the
		// stale completion at 10 when within the horizon, and L's
		// completion at 13 when within it.
		events int64
		// popped adds the one pop past the horizon that ends the run:
		// L's live completion at 13, or the stale one at 10, which the
		// queue used to pop and the slots never do.
		popped      int64
		completions int64
	}{
		{name: "stale-before-horizon", horizon: 20, events: 5, popped: 5, completions: 3},
		{name: "stale-at-horizon", horizon: 10, events: 4, popped: 5, completions: 3},
		{name: "stale-after-horizon", horizon: 9, events: 3, popped: 4, completions: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := obs.NewSimStats()
			out, err := Run(sys, Config{Protocol: NewDS(), Horizon: tc.horizon, Stats: st})
			if err != nil {
				t.Fatal(err)
			}
			if out.Metrics.Preemptions != 1 {
				t.Fatalf("preemptions = %d, want 1: the test lost its overwrite", out.Metrics.Preemptions)
			}
			snap := st.Snapshot()
			if out.Metrics.Events != tc.events {
				t.Errorf("Metrics.Events = %d, want %d", out.Metrics.Events, tc.events)
			}
			if snap.EventsTotal != tc.popped {
				t.Errorf("SimStats.EventsTotal = %d, want %d", snap.EventsTotal, tc.popped)
			}
			if got := snap.EventsByOp["completion"]; got != tc.completions {
				t.Errorf("completion events = %d, want %d", got, tc.completions)
			}
			if got := snap.EventsByOp["first_release"]; got != 2 {
				t.Errorf("first-release events = %d, want 2", got)
			}
		})
	}
}

// releaseSnapshots is DS recording a copy of every job as the engine hands
// it to OnRelease, before the job touches a ready queue.
type releaseSnapshots struct {
	DS
	jobs []Job
}

func (p *releaseSnapshots) OnRelease(_ *Engine, j *Job, _ model.Time) { p.jobs = append(p.jobs, *j) }

// poisonJob sets every field of j, unexported ones included, to a non-zero
// value, so a field release forgets to initialise shows up in the job it
// hands out.
func poisonJob(j *Job) {
	v := reflect.ValueOf(j).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
		switch {
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(3)
		case f.Kind() == reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case f.Kind() == reflect.Struct: // model.SubtaskID
			for k := 0; k < f.NumField(); k++ {
				f.Field(k).SetInt(1)
			}
		default:
			panic("poisonJob: unhandled field kind " + f.Kind().String())
		}
	}
}

// TestReleaseResetsRecycledJob poisons every arena job and reruns the same
// system: each job release hands out must look exactly as a fresh
// composite literal would leave it, since release initialises recycled
// jobs field by field.
func TestReleaseResetsRecycledJob(t *testing.T) {
	s := model.Example2()
	p := &releaseSnapshots{}
	cfg := Config{Protocol: p, Horizon: 40}
	e, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range e.jobs {
		poisonJob(j)
	}
	p.jobs = p.jobs[:0]
	if err := e.Reset(s, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(p.jobs) < len(e.jobs) {
		t.Fatalf("%d releases, fewer than the %d poisoned arena jobs", len(p.jobs), len(e.jobs))
	}
	for _, got := range p.jobs {
		if int(got.idx) < 0 || int(got.idx) >= e.idx.Len() {
			t.Fatalf("released job has dense index %d", got.idx)
		}
		info := &e.subs[got.idx]
		want := Job{
			ID:        e.idx.ID(int(got.idx)),
			Instance:  got.Instance,
			Release:   got.Release,
			Remaining: info.exec,
			idx:       got.idx,
			base:      info.base,
			eff:       info.eff,
			deadline:  model.TimeInfinity,
			demand:    info.exec,
			holding:   -1,
		}
		if got != want {
			t.Errorf("released job\n got %+v\nwant %+v", got, want)
		}
	}
}
