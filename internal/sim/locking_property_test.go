package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/priority"
)

// randomGlobalSystem builds a random multiprocessor system mixing local and
// global resources accessed through critical-section segments: three
// processors, one local resource, two global resources with random
// synchronization processors, and four tasks whose subtasks carry at most
// one section each. Execution demands stay small against the periods so the
// analytic bounds usually come out finite.
func randomGlobalSystem(rng *rand.Rand) *model.System {
	b := model.NewBuilder()
	procs := make([]int, 3)
	for i := range procs {
		procs[i] = b.AddProcessor(fmt.Sprintf("P%d", i+1))
	}
	locals := make([]int, len(procs))
	for i := range locals {
		locals[i] = b.AddResource(fmt.Sprintf("loc%d", i+1))
	}
	globals := []int{
		b.AddGlobalResource("g1", procs[rng.Intn(len(procs))]),
		b.AddGlobalResource("g2", procs[rng.Intn(len(procs))]),
	}
	for i := 0; i < 4; i++ {
		period := model.Duration(60 + rng.Intn(240))
		tb := b.AddTask(fmt.Sprintf("T%d", i+1), period, model.Time(rng.Intn(int(period))))
		n := 1 + rng.Intn(2)
		prev := -1
		for j := 0; j < n; j++ {
			proc := rng.Intn(len(procs))
			if proc == prev {
				proc = (proc + 1) % len(procs)
			}
			prev = proc
			exec := model.Duration(2 + rng.Intn(int(period)/10+1))
			tb.Subtask(procs[proc], exec, 0)
			switch rng.Intn(3) {
			case 0: // one global section somewhere inside the execution
				length := model.Duration(1 + rng.Intn(int(exec)/2+1))
				offset := model.Duration(rng.Intn(int(exec-length) + 1))
				tb.Critical(offset, length, globals[rng.Intn(len(globals))])
			case 1: // or a section on this processor's local resource
				length := model.Duration(1 + rng.Intn(int(exec)/2+1))
				offset := model.Duration(rng.Intn(int(exec-length) + 1))
				tb.Critical(offset, length, locals[proc])
			}
		}
		tb.Done()
	}
	s := b.MustBuild()
	if err := priority.Assign(s, priority.ProportionalDeadline); err != nil {
		panic(err)
	}
	return s
}

// TestGlobalResourceSystemsInvariants is the locking-protocol counterpart of
// TestResourceSystemsInvariants: on random global-resource systems, for each
// protocol the trace must satisfy every structural invariant (mutual
// exclusion across migration and suspension included), and every observed
// end-to-end response must stay within the corresponding analysis bound —
// the sim-vs-analysis consistency contract for MPCP and DPCP.
func TestGlobalResourceSystemsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		s := randomGlobalSystem(rng)
		checkLockingBounds(t, s, LockingMPCP)
		checkLockingBounds(t, s, LockingDPCP)
	}
}

// checkLockingBounds simulates s under DS with global locking protocol kind
// (MPCP or DPCP) and requires the trace to validate and each task's
// observed maximum EER to stay within its finite MPCP or DPCP bound.
func checkLockingBounds(t *testing.T, s *model.System, kind LockingKind) {
	t.Helper()
	analyze := analysis.AnalyzeMPCP
	if kind == LockingDPCP {
		analyze = analysis.AnalyzeDPCP
	}
	res, err := analyze(s, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	horizon := model.Time(int64(s.MaxPeriod()) * 12)
	out, err := Run(s, Config{Protocol: NewDS(), Horizon: horizon,
		Trace: true, Locking: kind})
	if err != nil {
		t.Fatalf("%s: %v\nsystem: %v", kind, err, s)
	}
	if problems := Validate(out.Trace, ValidateOptions{CheckPrecedence: true}); len(problems) > 0 {
		t.Fatalf("%s: %v\nsystem: %v", kind, problems[0], s)
	}
	for i := range s.Tasks {
		if res.TaskEER[i].IsInfinite() {
			continue
		}
		if model.Duration(out.Metrics.Tasks[i].MaxEER) > res.TaskEER[i] {
			t.Fatalf("%s task %d: observed max EER %v exceeds analytic bound %v\nsystem: %v",
				kind, i, out.Metrics.Tasks[i].MaxEER, res.TaskEER[i], s)
		}
	}
}
