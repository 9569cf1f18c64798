package obs

import (
	"testing"
	"time"
)

func TestSpanPhaseString(t *testing.T) {
	if got := SpanUnit.String(); got != "unit" {
		t.Errorf("SpanUnit.String() = %q, want %q", got, "unit")
	}
	if got := SpanTurnstileWait.String(); got != "turnstile-wait" {
		t.Errorf("SpanTurnstileWait.String() = %q, want %q", got, "turnstile-wait")
	}
	if got := NumSpanPhases.String(); got != "unknown" {
		t.Errorf("out-of-range phase String() = %q, want %q", got, "unknown")
	}
	for p := SpanPhase(0); p < NumSpanPhases; p++ {
		if p.String() == "" {
			t.Errorf("phase %d has no name", p)
		}
	}
}

// TestSummary checks the per-phase fold across arenas: counts, totals, and
// maxima aggregate over every worker, in phase enum order, skipping phases
// never recorded.
func TestSummary(t *testing.T) {
	tr := NewPipelineTracer()
	a0 := tr.Arena(0)
	a1 := tr.Arena(1)
	a0.Record(SpanUnit, 100, 400, 0, 0)     // dur 300
	a0.Record(SpanGenerate, 100, 150, 0, 0) // dur 50
	a1.Record(SpanUnit, 200, 1200, 0, 1)    // dur 1000
	a1.Record(SpanRun, 0, 70, -1, -1)

	sum := tr.Summary()
	if sum.Spans != 4 {
		t.Fatalf("Spans = %d, want 4", sum.Spans)
	}
	want := []SpanPhaseSummary{
		{Phase: "unit", Count: 2, TotalNS: 1300, MaxNS: 1000},
		{Phase: "generate", Count: 1, TotalNS: 50, MaxNS: 50},
		{Phase: "run", Count: 1, TotalNS: 70, MaxNS: 70},
	}
	if len(sum.Phases) != len(want) {
		t.Fatalf("got %d phases %+v, want %d", len(sum.Phases), sum.Phases, len(want))
	}
	for i, w := range want {
		if sum.Phases[i] != w {
			t.Errorf("phase[%d] = %+v, want %+v", i, sum.Phases[i], w)
		}
	}
}

// TestArenaRetained pins the cross-sweep accumulation contract: asking for
// the same worker index twice returns the same arena.
func TestArenaRetained(t *testing.T) {
	tr := NewPipelineTracer()
	a := tr.Arena(3)
	a.Record(SpanWorker, 0, 10, -1, -1)
	if tr.Arena(3) != a {
		t.Fatal("Arena(3) returned a different arena on the second call")
	}
	if tr.Arena(0) == a {
		t.Fatal("distinct worker indexes share an arena")
	}
	if a.Len() != 1 {
		t.Fatalf("arena Len = %d, want 1", a.Len())
	}
}

// TestSpanRecordSteadyStateZeroAllocs pins the enabled-path cost: once the
// arena's backing array is warm, recording a span is a plain append with no
// per-span allocation.
func TestSpanRecordSteadyStateZeroAllocs(t *testing.T) {
	tr := NewPipelineTracer()
	a := tr.Arena(0)
	for i := 0; i < 1024; i++ {
		a.Record(SpanUnit, int64(i), int64(i+1), 0, int64(i))
	}
	a.spans = a.spans[:0]
	if avg := testing.AllocsPerRun(1000, func() {
		a.Record(SpanUnit, 1, 2, 0, 3)
		if len(a.spans) == 1024 {
			a.spans = a.spans[:0]
		}
	}); avg != 0 {
		t.Fatalf("warm Record allocates %.2f times per span, want 0", avg)
	}
}

// TestStartSamplerFinalSample checks that stopping the sampler takes one
// final counter sample (so the trace's counter tracks reach the end of the
// run) and that stop is idempotent.
func TestStartSamplerFinalSample(t *testing.T) {
	tr := NewPipelineTracer()
	sp := NewSweepProgress()
	run := sp.StartSweep([]string{"(3,50)"}, 4, 1)
	sh := run.Shard(0)
	sh.UnitDone(0, time.Millisecond)
	sh.NoteSchedulable(true)

	stop := tr.StartSampler(sp, time.Hour) // interval never fires in-test
	stop()
	stop() // idempotent

	tr.mu.Lock()
	n := len(tr.samples)
	last := counterSample{}
	if n > 0 {
		last = tr.samples[n-1]
	}
	tr.mu.Unlock()
	if n != 1 {
		t.Fatalf("got %d samples after stop, want exactly the final one", n)
	}
	if last.unitsDone != 1 || last.schedFrac != 1 {
		t.Errorf("final sample = %+v, want unitsDone 1, schedFrac 1", last)
	}
}

// BenchmarkSpanRecord measures one arena append — the whole per-span cost a
// traced sweep pays over the zero-cost disabled path.
func BenchmarkSpanRecord(b *testing.B) {
	tr := NewPipelineTracer()
	a := tr.Arena(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Record(SpanSimulate, int64(i), int64(i)+100, 2, int64(i))
		if len(a.spans) == 1<<16 {
			a.spans = a.spans[:0]
		}
	}
}
