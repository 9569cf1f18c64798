package analysis

import (
	"math/rand"
	"testing"

	"rtsync/internal/model"
	"rtsync/internal/priority"
)

// TestSADSExample2 checks Algorithm SA/DS on the paper's Example 2.
//
// The paper's prose states an EER bound of 7 for T3, but the pseudo-code of
// Algorithm IEERT (Figure 10) converges to 8 — and 8 is also T3's *actual*
// response in the DS schedule of Figure 3 (released at 4, completes at 12),
// so a bound of 7 would be unsound. We treat the "7" as an erratum (see
// EXPERIMENTS.md) and assert the faithful value 8. The qualitative claim —
// the bound exceeds the deadline 6, so T3's schedulability cannot be
// asserted — holds either way.
func TestSADSExample2(t *testing.T) {
	s := model.Example2()
	res, err := AnalyzeDS(s, defaultTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantEER := []model.Duration{2, 7, 8}
	for i, want := range wantEER {
		if got := res.TaskEER[i]; got != want {
			t.Errorf("EER(T%d) = %v, want %v", i+1, got, want)
		}
	}
	if res.Schedulable(s, 2) {
		t.Error("T3 must not be assertable schedulable under DS (bound 8 > deadline 6)")
	}
	// Converged IEER bounds along T2's chain: 4 then 7.
	if got := res.Bound(model.SubtaskID{Task: 1, Sub: 0}).Response; got != 4 {
		t.Errorf("IEER(T2,1) = %v, want 4", got)
	}
	if got := res.Bound(model.SubtaskID{Task: 1, Sub: 1}).Response; got != 7 {
		t.Errorf("IEER(T2,2) = %v, want 7", got)
	}
	if res.Iterations < 2 {
		t.Errorf("SA/DS converged suspiciously fast: %d iterations", res.Iterations)
	}
}

func TestSADSExample1(t *testing.T) {
	// Single-chain interference-light system: the DS bounds match SA/PM
	// because the only chain's subtasks face jitter-free interferers.
	s := model.Example1()
	ds, err := AnalyzeDS(s, defaultTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := AnalyzePM(s, defaultTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Tasks {
		if ds.TaskEER[i] != pm.TaskEER[i] {
			t.Errorf("EER(T%d): DS %v != PM %v", i+1, ds.TaskEER[i], pm.TaskEER[i])
		}
	}
}

func TestInitialIEERIsPrefixSums(t *testing.T) {
	s := model.Example2()
	r := initialIEER(s)
	want := map[model.SubtaskID]model.Duration{
		{Task: 0, Sub: 0}: 2,
		{Task: 1, Sub: 0}: 2,
		{Task: 1, Sub: 1}: 5,
		{Task: 2, Sub: 0}: 2,
	}
	for id, w := range want {
		if got := r[id]; got != w {
			t.Errorf("initial IEER%v = %v, want %v", id, got, w)
		}
	}
}

func TestIEERTSinglePassExample2(t *testing.T) {
	// One IEERT pass from the optimistic seed, hand-computed:
	// R(1,1)=2, R(2,1)=4, R(2,2)=5 (jitter 2), R(3,1)=8 (interferer
	// jitter 2 forces two T2,2 hits).
	s := model.Example2()
	r := IEERT(s, initialIEER(s), defaultTestOpts())
	want := map[model.SubtaskID]model.Duration{
		{Task: 0, Sub: 0}: 2,
		{Task: 1, Sub: 0}: 4,
		{Task: 1, Sub: 1}: 5,
		{Task: 2, Sub: 0}: 8,
	}
	for id, w := range want {
		if got := r[id]; got != w {
			t.Errorf("IEERT pass 1 %v = %v, want %v", id, got, w)
		}
	}
}

func TestSADSDominatesSAPM(t *testing.T) {
	// §4.3: "Algorithm SA/DS always yields larger upper bounds on the
	// task EER times than Algorithm SA/PM." (>= with ties.) Check on
	// random two-processor systems.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		s := randomChainSystem(rng, 2, 4, 3)
		pm, err := AnalyzePM(s, defaultTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		ds, err := AnalyzeDS(s, defaultTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Tasks {
			if pm.TaskEER[i].IsInfinite() {
				continue
			}
			if ds.TaskEER[i] < pm.TaskEER[i] {
				t.Errorf("trial %d task %d: DS bound %v < PM bound %v\nsystem: %v",
					trial, i, ds.TaskEER[i], pm.TaskEER[i], s)
			}
		}
	}
}

func TestSADSMonotoneIteration(t *testing.T) {
	// The SA/DS iterates are non-decreasing from the optimistic seed.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		s := randomChainSystem(rng, 2, 3, 3)
		r := initialIEER(s)
		for pass := 0; pass < 10; pass++ {
			next := IEERT(s, r, defaultTestOpts())
			for id, v := range next {
				if v < r[id] {
					t.Fatalf("trial %d pass %d: IEERT decreased %v from %v to %v",
						trial, pass, id, r[id], v)
				}
			}
			if boundsEqual(r, next) {
				break
			}
			r = next
		}
	}
}

func TestSADSFailureOnOverUtilization(t *testing.T) {
	b := model.NewBuilder()
	p := b.AddProcessor("P")
	q := b.AddProcessor("Q")
	b.AddTask("A", 10, 0).Subtask(p, 6, 2).Subtask(q, 2, 1).Done()
	b.AddTask("B", 10, 0).Subtask(p, 6, 1).Subtask(q, 2, 2).Done()
	s := b.MustBuild()
	res, err := AnalyzeDS(s, defaultTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Error("over-utilized system should fail SA/DS")
	}
	// The first subtask of A is below the top priority on P, whose level
	// utilization is 1.2: its bound must be infinite, which poisons A.
	if !res.TaskEER[0].IsInfinite() {
		t.Errorf("EER(A) = %v, want Infinite", res.TaskEER[0])
	}
}

func TestSADSFailureCapTriggers(t *testing.T) {
	s := model.Example2()
	opts := defaultTestOpts()
	opts.FailureFactor = 1
	res, err := AnalyzeDS(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	// T3's bound 8 exceeds its period 6 -> infinite under factor 1.
	if !res.TaskEER[2].IsInfinite() {
		t.Errorf("EER(T3) = %v, want Infinite under factor-1 cap", res.TaskEER[2])
	}
}

// TestSADSHugePeriodChain pins the instance count of a busy period whose
// D + J lies within a period of MaxInt64: one task of period 2^62 whose two
// 3e18-tick subtasks run on different processors. The second subtask's
// busy period is D = 6e18 with jitter J = 3e18, so M = ceil(9e18/2^62) = 2
// and the EER bound is max(C(1)+J, C(2)+J−p) = 3e18+3e18 = 6e18. The
// former ceiling (d+e−1)/e wrapped negative here: with two-division demand
// terms the busy period overflowed to inf, and with exact terms M wrapped
// to −1, skipping every instance and reporting 0 as schedulable.
func TestSADSHugePeriodChain(t *testing.T) {
	b := model.NewBuilder()
	p := b.AddProcessor("P")
	q := b.AddProcessor("Q")
	b.AddTask("T", 1<<62, 0).Subtask(p, 3e18, 1).Subtask(q, 3e18, 1).Done()
	s := b.MustBuild()
	const want = model.Duration(6e18)
	ds, err := AnalyzeDS(s, defaultTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	hol, err := AnalyzeDSHolistic(s, defaultTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ds.TaskEER[0] != want || hol.TaskEER[0] != want {
		t.Errorf("EER SA/DS %v, holistic %v, want %v for both", ds.TaskEER[0], hol.TaskEER[0], want)
	}
	if ds.Schedulable(s, 0) {
		t.Errorf("EER %v > deadline %v reported schedulable", ds.TaskEER[0], s.Tasks[0].Deadline)
	}
}

func TestSADSRejectsInvalidSystem(t *testing.T) {
	s := model.Example2()
	s.Tasks[0].Subtasks[0].Exec = 0
	if _, err := AnalyzeDS(s, defaultTestOpts()); err == nil {
		t.Error("AnalyzeDS accepted an invalid system")
	}
}

func TestBoundsEqual(t *testing.T) {
	a := IEERBounds{{Task: 0, Sub: 0}: 3}
	b := IEERBounds{{Task: 0, Sub: 0}: 3}
	if !boundsEqual(a, b) {
		t.Error("equal bounds reported unequal")
	}
	b[model.SubtaskID{Task: 0, Sub: 0}] = 4
	if boundsEqual(a, b) {
		t.Error("unequal bounds reported equal")
	}
	if boundsEqual(a, IEERBounds{}) {
		t.Error("different sizes reported equal")
	}
}

// randomChainSystem builds a random valid system: procs processors, tasks
// chains of up to maxLen subtasks, with per-level utilizations kept modest
// so most analyses converge. Priorities are assigned PD-monotonically.
func randomChainSystem(rng *rand.Rand, procs, tasks, maxLen int) *model.System {
	b := model.NewBuilder()
	for p := 0; p < procs; p++ {
		b.AddProcessor("")
	}
	for i := 0; i < tasks; i++ {
		period := model.Duration(20 + rng.Intn(200))
		tb := b.AddTask("", period, model.Time(rng.Intn(20)))
		n := 1 + rng.Intn(maxLen)
		prev := -1
		for j := 0; j < n; j++ {
			proc := rng.Intn(procs)
			if proc == prev && procs > 1 {
				proc = (proc + 1) % procs
			}
			prev = proc
			exec := model.Duration(1 + rng.Intn(int(period)/(2*maxLen)+1))
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

func TestSADSStopOnFailurePoisonsSuffix(t *testing.T) {
	// A's first subtask sits below an over-utilized level on P, so its
	// bound is infinite; with StopOnFailure the iteration stops early
	// and every bound after the infinite one must be poisoned too —
	// no finite (unsound) intermediate may leak.
	b := model.NewBuilder()
	p := b.AddProcessor("P")
	q := b.AddProcessor("Q")
	r := b.AddProcessor("R")
	b.AddTask("A", 10, 0).Subtask(p, 6, 1).Subtask(q, 2, 1).Subtask(r, 1, 1).Done()
	b.AddTask("B", 10, 0).Subtask(p, 6, 2).Subtask(q, 2, 2).Done()
	s := b.MustBuild()

	opts := defaultTestOpts()
	opts.StopOnFailure = true
	res, err := AnalyzeDS(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("over-utilized system must fail")
	}
	if !res.TaskEER[0].IsInfinite() {
		t.Errorf("EER(A) = %v, want Infinite", res.TaskEER[0])
	}
	// Every subtask after A's poisoned head must be infinite as well.
	for j := 0; j < 3; j++ {
		id := model.SubtaskID{Task: 0, Sub: j}
		if !res.Bound(id).Response.IsInfinite() {
			t.Errorf("bound for %v = %v, want Infinite (suffix poisoning)", id, res.Bound(id).Response)
		}
	}
}

func TestSADSStopOnFailureAgreesOnFailedness(t *testing.T) {
	// StopOnFailure must never change WHETHER a system fails — only how
	// much work is spent discovering it.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		s := randomChainSystem(rng, 2, 5, 4)
		full, err := AnalyzeDS(s, defaultTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		opts := defaultTestOpts()
		opts.StopOnFailure = true
		fast, err := AnalyzeDS(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if full.Failed() != fast.Failed() {
			t.Errorf("trial %d: Failed() disagrees (full %v, stop-on-failure %v)\nsystem: %v",
				trial, full.Failed(), fast.Failed(), s)
		}
	}
}

func TestSADSDeterministicAcrossRuns(t *testing.T) {
	// The worklist is processed in sorted order, so repeated analyses of
	// the same system are bit-identical — including for borderline
	// systems near the failure cap, where Gauss-Seidel pass counts would
	// otherwise depend on map iteration order.
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		s := randomChainSystem(rng, 3, 6, 5)
		first, err := AnalyzeDS(s, defaultTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			again, err := AnalyzeDS(s, defaultTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			if again.Iterations != first.Iterations {
				t.Fatalf("trial %d: iteration count varies (%d vs %d)",
					trial, first.Iterations, again.Iterations)
			}
			for i := range s.Tasks {
				if again.TaskEER[i] != first.TaskEER[i] {
					t.Fatalf("trial %d task %d: bound varies (%v vs %v)",
						trial, i, first.TaskEER[i], again.TaskEER[i])
				}
			}
		}
	}
}
