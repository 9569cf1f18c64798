package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/priority"
)

// randomSystem builds a random valid multi-processor system with chains,
// modest utilization, and PD-monotonic priorities.
func randomSystem(rng *rand.Rand, procs, tasks, maxLen int) *model.System {
	b := model.NewBuilder()
	for p := 0; p < procs; p++ {
		b.AddProcessor(fmt.Sprintf("P%d", p+1))
	}
	for i := 0; i < tasks; i++ {
		period := model.Duration(40 + rng.Intn(400))
		tb := b.AddTask(fmt.Sprintf("T%d", i+1), period, model.Time(rng.Intn(int(period))))
		n := 1 + rng.Intn(maxLen)
		prev := -1
		for j := 0; j < n; j++ {
			proc := rng.Intn(procs)
			if proc == prev && procs > 1 {
				proc = (proc + 1) % procs
			}
			prev = proc
			exec := model.Duration(1 + rng.Intn(int(period)/(3*maxLen)+1))
			tb.Subtask(proc, exec, 0)
		}
		tb.Done()
	}
	s := b.MustBuild()
	if err := priority.Assign(s, priority.ProportionalDeadline); err != nil {
		panic(err)
	}
	return s
}

// allProtocols returns every protocol runnable on s (PM/MPM only when the
// SA/PM bounds are finite).
func allProtocols(t *testing.T, s *model.System) []Protocol {
	t.Helper()
	ps := []Protocol{NewDS(), NewRG(), NewRGRule1Only()}
	res, err := analysis.AnalyzePM(s, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := make(Bounds, len(res.Bounds))
	finite := true
	for i, sb := range res.Bounds {
		id := res.Index.ID(i)
		if sb.Response.IsInfinite() {
			finite = false
			break
		}
		b[id] = sb.Response
	}
	if finite {
		ps = append(ps, NewPM(b), NewMPM(b))
	}
	return ps
}

// TestRandomSystemsInvariants is the package's main property test: over a
// population of random systems and every protocol, the full trace validator
// must pass and the simulated EER times must respect the analyzed bounds.
func TestRandomSystemsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		checkReleaseProtocols(t, randomSystem(rng, 1+rng.Intn(3), 2+rng.Intn(4), 3))
	}
}

// checkReleaseProtocols simulates s under every protocol allProtocols
// admits and requires each trace to validate, with no precedence violation
// or overrun, and each task's observed maximum EER to stay within its
// analyzed bound: SA/DS under DS, SA/PM under the others.
func checkReleaseProtocols(t *testing.T, s *model.System) {
	t.Helper()
	horizon := model.Time(int64(s.MaxPeriod()) * 12)
	pmRes, err := analysis.AnalyzePM(s, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dsRes, err := analysis.AnalyzeDS(s, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allProtocols(t, s) {
		out, err := Run(s, Config{Protocol: p, Horizon: horizon, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v\nsystem: %v", p.Name(), err, s)
		}
		opts := ValidateOptions{CheckPrecedence: true, CheckRGSpacing: p.Name() == "RG"}
		if problems := Validate(out.Trace, opts); len(problems) > 0 {
			t.Fatalf("%s: invalid trace: %v\nsystem: %v", p.Name(), problems[0], s)
		}
		if out.Metrics.PrecedenceViolations != 0 {
			t.Fatalf("%s: %d precedence violations\nsystem: %v", p.Name(), out.Metrics.PrecedenceViolations, s)
		}
		if out.Metrics.Overruns != 0 {
			t.Fatalf("%s: %d overruns\nsystem: %v", p.Name(), out.Metrics.Overruns, s)
		}
		// Soundness of bounds against observation.
		bounds := pmRes.TaskEER
		if p.Name() == "DS" {
			bounds = dsRes.TaskEER
		}
		for i := range s.Tasks {
			if model.Duration(out.Metrics.Tasks[i].MaxEER) > bounds[i] {
				t.Fatalf("%s: task %d max EER %v exceeds bound %v\nsystem: %v",
					p.Name(), i, out.Metrics.Tasks[i].MaxEER, bounds[i], s)
			}
		}
	}
}

// TestDSAverageNeverWorse spot-checks the paper's broad finding that DS
// yields the shortest average EER times: on random systems, for every task
// that completed instances under both protocols, avg EER(DS) <= avg
// EER(PM) + epsilon; and RG sits between DS and PM on average across tasks.
func TestDSAverageNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		s := randomSystem(rng, 2, 4, 3)
		res, err := analysis.AnalyzePM(s, analysis.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b := make(Bounds)
		finite := true
		for i, sb := range res.Bounds {
			id := res.Index.ID(i)
			if sb.Response.IsInfinite() {
				finite = false
				break
			}
			b[id] = sb.Response
		}
		if !finite {
			continue
		}
		horizon := model.Time(int64(s.MaxPeriod()) * 30)
		ds, err := Run(s, Config{Protocol: NewDS(), Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		pm, err := Run(s, Config{Protocol: NewPM(b), Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Tasks {
			if len(s.Tasks[i].Subtasks) < 2 {
				continue // single-subtask tasks are identical under all protocols
			}
			if ds.Metrics.Tasks[i].Completed == 0 || pm.Metrics.Tasks[i].Completed == 0 {
				continue
			}
			dsAvg, pmAvg := ds.Metrics.Tasks[i].AvgEER(), pm.Metrics.Tasks[i].AvgEER()
			if dsAvg > pmAvg+1e-9 {
				t.Errorf("trial %d task %d: avg EER DS %v > PM %v\nsystem: %v",
					trial, i, dsAvg, pmAvg, s)
			}
		}
	}
}

// TestDeterministicReplay runs the same configuration twice and requires
// bit-identical metrics — the simulator must be deterministic.
func TestDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := randomSystem(rng, 3, 5, 4)
	horizon := model.Time(int64(s.MaxPeriod()) * 10)
	run := func() *Metrics {
		out, err := Run(s, Config{Protocol: NewRG(), Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		return out.Metrics
	}
	a, b := run(), run()
	if a.Events != b.Events || a.Preemptions != b.Preemptions {
		t.Fatalf("replay diverged: %d/%d events, %d/%d preemptions",
			a.Events, b.Events, a.Preemptions, b.Preemptions)
	}
	for i := range a.Tasks {
		if !a.Tasks[i].EqualAggregates(&b.Tasks[i]) {
			t.Errorf("task %d metrics diverged: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
}

// TestRGInterReleaseWithinBusyPeriods drives a heavily loaded system and
// verifies the RG spacing invariant holds at scale (the analytical heart of
// Theorem 1's argument).
func TestRGInterReleaseWithinBusyPeriods(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		s := randomSystem(rng, 2, 6, 4)
		horizon := model.Time(int64(s.MaxPeriod()) * 20)
		out, err := Run(s, Config{Protocol: NewRG(), Horizon: horizon, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if problems := Validate(out.Trace, ValidateOptions{CheckRGSpacing: true}); len(problems) > 0 {
			t.Fatalf("trial %d: %v", trial, problems[0])
		}
	}
}
