package sim_test

import (
	"runtime"
	"testing"

	"rtsync/internal/model"
	"rtsync/internal/sim"
	"rtsync/internal/workload"
)

// perfSystem generates the Figure 14–16 workload shape used by the
// top-level simulator benchmarks: 5 subtasks per task at utilization 0.7.
func perfSystem(tb testing.TB) *model.System {
	tb.Helper()
	cfg := workload.DefaultConfig(5, 0.7)
	cfg.Seed = 11
	sys, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

func perfConfig(sys *model.System, periods int64) sim.Config {
	return sim.Config{
		Protocol: sim.NewRG(),
		Horizon:  model.Time(int64(sys.MaxPeriod()) * periods),
	}
}

// TestSteadyStateZeroAllocs asserts the tentpole property: once an engine
// is warm, processing events allocates nothing. Doubling the horizon
// roughly doubles the event count, so the allocation difference between a
// 2H run and an H run isolates the per-event cost; per-run setup (fresh
// Metrics, protocol Init) cancels out.
func TestSteadyStateZeroAllocs(t *testing.T) {
	sys := perfSystem(t)
	e, err := sim.New(sys, perfConfig(sys, 20))
	if err != nil {
		t.Fatal(err)
	}
	// Warm at the longest horizon first so every backing array reaches
	// its high-water capacity before measurement.
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var events [2]int64
	measure := func(slot int, periods int64) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := e.Reset(sys, perfConfig(sys, periods)); err != nil {
				t.Fatal(err)
			}
			out, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			events[slot] = out.Metrics.Events
		})
	}
	long := measure(1, 20)
	short := measure(0, 10)
	extraEvents := events[1] - events[0]
	if extraEvents <= 0 {
		t.Fatalf("horizon doubling added no events (%d vs %d)", events[0], events[1])
	}
	if extra := long - short; extra > 0.5 {
		t.Errorf("steady state allocates: %0.1f extra allocs for %d extra events (want 0)",
			extra, extraEvents)
	}
}

// TestRunMemoryBounded is the regression test for the in-run memory growth
// bug: the old engine's completion and release maps retained one entry per
// instance, so allocated bytes grew linearly with the horizon even with
// tracing off. With watermarks and rings, bytes per run must be flat in the
// horizon (up to noise) once the engine is warm.
func TestRunMemoryBounded(t *testing.T) {
	sys := perfSystem(t)
	e, err := sim.New(sys, perfConfig(sys, 80))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	bytesPerRun := func(periods int64) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := e.Reset(sys, perfConfig(sys, periods)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short := bytesPerRun(10)
	long := bytesPerRun(80)
	// An 8× horizon must not cost ~8× the bytes; allow 2× plus slack for
	// GC noise and the fixed per-run setup.
	if limit := 2*short + 64<<10; long > limit {
		t.Errorf("in-run memory grows with horizon: %d B at 10 periods vs %d B at 80 (limit %d)",
			short, long, limit)
	}
}

// BenchmarkEngineEvents measures the steady-state event loop on a reused
// engine: the headline per-event cost of the simulator. The custom
// "ns/event" metric divides out the horizon so runs of different lengths
// compare directly.
func BenchmarkEngineEvents(b *testing.B) {
	sys := perfSystem(b)
	cfg := perfConfig(sys, 10)
	e, err := sim.New(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		if err := e.Reset(sys, cfg); err != nil {
			b.Fatal(err)
		}
		out, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += out.Metrics.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkEngineReuse contrasts the Runner path (engine recycled across
// runs, as the experiment sweeps use it) with BenchmarkEngineFresh below.
func BenchmarkEngineReuse(b *testing.B) {
	sys := perfSystem(b)
	cfg := perfConfig(sys, 10)
	var r sim.Runner
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(sys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFresh builds a new engine per run — the cost the Runner
// avoids.
func BenchmarkEngineFresh(b *testing.B) {
	sys := perfSystem(b)
	cfg := perfConfig(sys, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
