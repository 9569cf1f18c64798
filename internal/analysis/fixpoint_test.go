package analysis

import (
	"testing"

	"rtsync/internal/model"
	"rtsync/internal/workload"
)

func defaultTestOpts() Options { return DefaultOptions() }

// fp is solveFixpoint with the iteration count discarded — the value-only
// form most fixpoint tests care about.
func fp(base model.Duration, terms []term, cap model.Duration, maxIter int, start model.Duration) model.Duration {
	v, _ := solveFixpoint(base, terms, cap, maxIter, start)
	return v
}

func TestSolveFixpointSingleTerm(t *testing.T) {
	// t = ceil(t/4)*2 has least positive solution 2.
	got := fp(0, []term{{Period: 4, Exec: 2}}, 1<<30, 1000, 0)
	if got != 2 {
		t.Errorf("solveFixpoint = %v, want 2", got)
	}
}

func TestSolveFixpointTwoTerms(t *testing.T) {
	// Level-(T2,1) busy period of Example 2 on P1:
	// t = ceil(t/4)*2 + ceil(t/6)*2 -> 4.
	got := fp(0, []term{{Period: 4, Exec: 2}, {Period: 6, Exec: 2}}, 1<<30, 1000, 0)
	if got != 4 {
		t.Errorf("solveFixpoint = %v, want 4", got)
	}
}

func TestSolveFixpointWithBase(t *testing.T) {
	// C(1) of T2,1 in Example 2: t = 2 + ceil(t/4)*2 -> 4.
	got := fp(2, []term{{Period: 4, Exec: 2}}, 1<<30, 1000, 0)
	if got != 4 {
		t.Errorf("solveFixpoint = %v, want 4", got)
	}
}

func TestSolveFixpointWithJitter(t *testing.T) {
	// t = 2 + ceil((t+4)/6)*3: t=8 gives 2+2*3=8.
	got := fp(2, []term{{Period: 6, Exec: 3, Jitter: 4}}, 1<<30, 1000, 0)
	if got != 8 {
		t.Errorf("solveFixpoint = %v, want 8", got)
	}
}

func TestSolveFixpointBaseOnlyNoTerms(t *testing.T) {
	if got := fp(5, nil, 1<<30, 1000, 0); got != 5 {
		t.Errorf("solveFixpoint(5, nil) = %v, want 5", got)
	}
}

func TestSolveFixpointZeroEquationDiverges(t *testing.T) {
	// t = 0 has no positive solution.
	if got := fp(0, nil, 1<<30, 1000, 0); !got.IsInfinite() {
		t.Errorf("solveFixpoint(0, nil) = %v, want Infinite", got)
	}
}

func TestSolveFixpointOverUtilizedDiverges(t *testing.T) {
	// Utilization 0.5 + 0.6 > 1: no fixpoint below the cap.
	terms := []term{{Period: 10, Exec: 5}, {Period: 10, Exec: 6}}
	if got := fp(0, terms, 1000, 100000, 0); !got.IsInfinite() {
		t.Errorf("over-utilized fixpoint = %v, want Infinite", got)
	}
}

func TestSolveFixpointRespectsCap(t *testing.T) {
	// Converges to 2, but cap of 1 forces Infinite.
	got := fp(0, []term{{Period: 4, Exec: 2}}, 1, 1000, 0)
	if !got.IsInfinite() {
		t.Errorf("capped fixpoint = %v, want Infinite", got)
	}
}

func TestSolveFixpointExhaustsIterations(t *testing.T) {
	// Utilization exactly 1 with base > 0 never converges: every iterate
	// grows. maxIter must stop it.
	terms := []term{{Period: 2, Exec: 1}, {Period: 2, Exec: 1}}
	got := fp(1, terms, model.Infinite-1, 50, 0)
	if !got.IsInfinite() {
		t.Errorf("iteration-exhausted fixpoint = %v, want Infinite", got)
	}
}

func TestDemandSaturates(t *testing.T) {
	terms := []term{{Period: 1, Exec: model.Infinite - 1}}
	if got := demand(0, 10, terms); !got.IsInfinite() {
		t.Errorf("demand with huge exec = %v, want Infinite", got)
	}
	if got := demand(0, 10, []term{{Period: 5, Exec: 2, Jitter: model.Infinite}}); !got.IsInfinite() {
		t.Errorf("demand with infinite jitter = %v, want Infinite", got)
	}
}

func TestInterferersExample2(t *testing.T) {
	s := model.Example2()
	// T2,1 (prio 1 on P1) is interfered by T1 (prio 2 on P1).
	hi := interferers(s, model.SubtaskID{Task: 1, Sub: 0})
	if len(hi) != 1 || hi[0] != (model.SubtaskID{Task: 0, Sub: 0}) {
		t.Errorf("interferers(T2,1) = %v, want [T(1,1)]", hi)
	}
	// T1 (highest prio on P1) has none.
	if hi := interferers(s, model.SubtaskID{Task: 0, Sub: 0}); len(hi) != 0 {
		t.Errorf("interferers(T1) = %v, want empty", hi)
	}
	// T3 is interfered by T2,2 on P2.
	hi = interferers(s, model.SubtaskID{Task: 2, Sub: 0})
	if len(hi) != 1 || hi[0] != (model.SubtaskID{Task: 1, Sub: 1}) {
		t.Errorf("interferers(T3) = %v, want [T(2,2)]", hi)
	}
}

func TestInterferersIncludeEqualPriority(t *testing.T) {
	b := model.NewBuilder()
	p := b.AddProcessor("P")
	b.AddTask("A", 10, 0).Subtask(p, 1, 5).Done()
	b.AddTask("B", 10, 0).Subtask(p, 1, 5).Done()
	s := b.MustBuild()
	hi := interferers(s, model.SubtaskID{Task: 0, Sub: 0})
	if len(hi) != 1 || hi[0] != (model.SubtaskID{Task: 1, Sub: 0}) {
		t.Errorf("equal-priority interferer missing: %v", hi)
	}
}

func TestBlockingTermNonPreemptive(t *testing.T) {
	b := model.NewBuilder()
	bus := b.AddLink("can")
	b.AddTask("hi", 10, 0).Subtask(bus, 1, 3).Done()
	b.AddTask("mid", 10, 0).Subtask(bus, 2, 2).Done()
	b.AddTask("lo", 10, 0).Subtask(bus, 4, 1).Done()
	s := b.MustBuild()
	opts := defaultTestOpts()
	// hi can be blocked by the longer of mid (2) and lo (4).
	if got := blockingTerm(s, model.SubtaskID{Task: 0, Sub: 0}, opts); got != 4 {
		t.Errorf("blocking(hi) = %v, want 4", got)
	}
	// mid only by lo.
	if got := blockingTerm(s, model.SubtaskID{Task: 1, Sub: 0}, opts); got != 4 {
		t.Errorf("blocking(mid) = %v, want 4", got)
	}
	// lo by nothing.
	if got := blockingTerm(s, model.SubtaskID{Task: 2, Sub: 0}, opts); got != 0 {
		t.Errorf("blocking(lo) = %v, want 0", got)
	}
	// Zero on preemptive lock-free processors.
	s2 := s.Clone()
	s2.Procs[0].Preemptive = true
	if got := blockingTerm(s2, model.SubtaskID{Task: 0, Sub: 0}, opts); got != 0 {
		t.Errorf("blocking on preemptive proc = %v, want 0", got)
	}
}

func TestBlockingTermCeiling(t *testing.T) {
	// hi and lo share a resource on a preemptive processor; mid does
	// not. Under ceiling emulation, hi can be blocked once by lo's
	// whole execution (lo runs at hi's priority while holding the
	// lock); mid can also be blocked by lo (ceiling above mid); lo by
	// nothing.
	b := model.NewBuilder()
	p := b.AddProcessor("P")
	r := b.AddResource("sensor")
	b.AddTask("hi", 10, 0).Subtask(p, 1, 3).Locking(r).Done()
	b.AddTask("mid", 10, 0).Subtask(p, 2, 2).Done()
	b.AddTask("lo", 10, 0).Subtask(p, 4, 1).Locking(r).Done()
	s := b.MustBuild()
	opts := defaultTestOpts()
	if got := blockingTerm(s, model.SubtaskID{Task: 0, Sub: 0}, opts); got != 4 {
		t.Errorf("blocking(hi) = %v, want 4", got)
	}
	if got := blockingTerm(s, model.SubtaskID{Task: 1, Sub: 0}, opts); got != 4 {
		t.Errorf("blocking(mid) = %v, want 4", got)
	}
	if got := blockingTerm(s, model.SubtaskID{Task: 2, Sub: 0}, opts); got != 0 {
		t.Errorf("blocking(lo) = %v, want 0", got)
	}
	// Without the shared resource there is no blocking at all.
	s2 := s.Clone()
	s2.Tasks[0].Subtasks[0].Locks = nil
	s2.Tasks[2].Subtasks[0].Locks = nil
	if got := blockingTerm(s2, model.SubtaskID{Task: 0, Sub: 0}, opts); got != 0 {
		t.Errorf("blocking without locks = %v, want 0", got)
	}
}

func TestProcOverUtilized(t *testing.T) {
	b := model.NewBuilder()
	p := b.AddProcessor("P")
	b.AddTask("A", 10, 0).Subtask(p, 6, 2).Done()
	b.AddTask("B", 10, 0).Subtask(p, 6, 1).Done()
	s := b.MustBuild()
	// Level of B: 6/10 + 6/10 = 1.2 > 1.
	if !procOverUtilized(s, model.SubtaskID{Task: 1, Sub: 0}) {
		t.Error("B's level should be over-utilized")
	}
	// Level of A alone: 0.6 <= 1.
	if procOverUtilized(s, model.SubtaskID{Task: 0, Sub: 0}) {
		t.Error("A's level should not be over-utilized")
	}
}

// BenchmarkDemand prices the demand kernel per interference term on the
// (8, 90%) benchmark shape: every subtask's terms, jittered as on SA/DS's
// first pass (by the predecessors' prefix execution sums), evaluated at
// each iterate of its busy-period iteration — the points the analyses
// actually visit. It reports ns/term, the figure a same-run A/B of kernel
// changes compares.
func BenchmarkDemand(b *testing.B) {
	cfg := workload.DefaultConfig(8, 0.9)
	cfg.Seed = 17
	sys, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAnalyzer(sys, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	type probe struct {
		base, t model.Duration
		terms   []term
	}
	var probes []probe
	terms := 0
	for i := 0; i < a.ix.Len(); i++ {
		off := a.termOff[i]
		ts := append([]term(nil), a.termBuf[off:a.termOff[i+1]]...)
		for k := range ts {
			ts[k].Jitter = 0
			if src := a.termSrc[off+k]; src >= 0 {
				ts[k].Jitter = a.prefixExec[src]
			}
		}
		for t, steps := model.Duration(1), 0; t <= a.busyCap[i] && steps < 64; steps++ {
			probes = append(probes, probe{base: a.block[i], t: t, terms: ts})
			terms += len(ts)
			next := demand(a.block[i], t, ts)
			if next <= t {
				break
			}
			t = next
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, p := range probes {
			demandSink = demand(p.base, p.t, p.terms)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*terms), "ns/term")
}

// demandSink keeps BenchmarkDemand's calls from being optimized away.
var demandSink model.Duration
