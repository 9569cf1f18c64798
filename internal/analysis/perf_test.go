// Analysis hot-path benchmarks on the paper-grid (8, 90%) configuration —
// the workload shape that dominates the Figure 12/13 sweeps. BENCH_analysis
// .json records the before/after trajectory of the dense-Analyzer refactor.
package analysis_test

import (
	"fmt"
	"testing"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/workload"
)

// benchSystem generates the (8, 90%) paper-grid system the benchmarks
// analyze: 4 processors, 12 tasks, 96 subtasks at utilization 0.9.
func benchSystem(tb testing.TB) *model.System {
	tb.Helper()
	cfg := workload.DefaultConfig(8, 0.9)
	cfg.Seed = 17
	sys, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// BenchmarkAnalyzePM measures Algorithm SA/PM through the package-level
// entry point (fresh per-call state, as rtsync.AnalyzePM uses it).
func BenchmarkAnalyzePM(b *testing.B) {
	sys := benchSystem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AnalyzePM(sys, analysis.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeDS measures Algorithm SA/DS (iterated IEERT) through the
// package-level entry point.
func BenchmarkAnalyzeDS(b *testing.B) {
	sys := benchSystem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AnalyzeDS(sys, analysis.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeDSStopOnFailure measures the Figure 12 configuration:
// only Failed() matters, so SA/DS may stop at the first infinite bound.
func BenchmarkAnalyzeDSStopOnFailure(b *testing.B) {
	sys := benchSystem(b)
	opts := analysis.DefaultOptions()
	opts.StopOnFailure = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AnalyzeDS(sys, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeHolistic measures the Tindell & Clark comparator.
func BenchmarkAnalyzeHolistic(b *testing.B) {
	sys := benchSystem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AnalyzeDSHolistic(sys, analysis.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// lockBenchSystem adds the locking study's contention knobs to the
// benchmark shape: two global resources, 30% of subtasks carrying one
// critical section of up to half their execution.
func lockBenchSystem(tb testing.TB) *model.System {
	tb.Helper()
	cfg := workload.DefaultConfig(8, 0.9)
	cfg.Seed = 17
	cfg.GlobalResources = 2
	cfg.GlobalShare = 0.3
	cfg.CSLenFrac = 0.5
	sys, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// BenchmarkAnalyzeMPCP measures the suspension-aware MPCP analysis (outer
// Jacobi iteration over bounds and lock waits) on the contended shape.
func BenchmarkAnalyzeMPCP(b *testing.B) {
	sys := lockBenchSystem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AnalyzeMPCP(sys, analysis.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeDPCP is BenchmarkAnalyzeMPCP's DPCP companion.
func BenchmarkAnalyzeDPCP(b *testing.B) {
	sys := lockBenchSystem(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AnalyzeDPCP(sys, analysis.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAnalysisSteadyStateZeroAllocs asserts the tentpole property of the
// dense Analyzer, mirroring sim's TestSteadyStateZeroAllocs: once Reset has
// built the per-system structures, re-running every analysis allocates
// nothing — the sweeps' steady state when a worker recycles one Analyzer.
func TestAnalysisSteadyStateZeroAllocs(t *testing.T) {
	sys := benchSystem(t)
	an, err := analysis.NewAnalyzer(sys, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Warm every code path (and any lazily grown scratch) once.
	an.AnalyzePM()
	an.AnalyzeDS()
	an.AnalyzeHolistic()
	allocs := testing.AllocsPerRun(5, func() {
		if an.AnalyzePM().Failed() && an.AnalyzeDS().Failed() && an.AnalyzeHolistic().Failed() {
			t.Fatal("benchmark system unexpectedly unanalyzable")
		}
	})
	if allocs > 0 {
		t.Errorf("warm re-analysis allocates %.1f times per run (want 0)", allocs)
	}
}

// BenchmarkAnalyzeDSReuse measures SA/DS on a recycled Analyzer — the cost
// the experiment sweeps actually pay per system after the refactor. Reset is
// inside the loop, as a sweep worker Resets per generated system.
func BenchmarkAnalyzeDSReuse(b *testing.B) {
	sys := benchSystem(b)
	var an analysis.Analyzer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := an.Reset(sys, analysis.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		an.AnalyzeDS()
	}
}

// BenchmarkAnalyzePMReuse is the SA/PM companion of BenchmarkAnalyzeDSReuse.
func BenchmarkAnalyzePMReuse(b *testing.B) {
	sys := benchSystem(b)
	var an analysis.Analyzer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := an.Reset(sys, analysis.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		an.AnalyzePM()
	}
}

// BenchmarkAnalyzeCacheHit prices rtsyncd's fastest path: content-hash the
// system and serve the memoized Result. The gap to BenchmarkAnalyzeDSReuse
// is the cache's whole value proposition.
func BenchmarkAnalyzeCacheHit(b *testing.B) {
	sys := benchSystem(b)
	opts := analysis.DefaultOptions()
	res, err := analysis.AnalyzeDS(sys, opts)
	if err != nil {
		b.Fatal(err)
	}
	var h analysis.SystemHasher
	cache := analysis.NewResultCache(4)
	cache.Put(h.Hash(sys, "sads", opts), sys, res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cache.Get(h.Hash(sys, "sads", opts)) == nil {
			b.Fatal("cache miss on primed digest")
		}
	}
}

// deltaBenchSystem builds the sharded shape the incremental path targets: 8
// independent 2-processor clusters (each a generated (3, 60%) workload)
// merged into one 16-processor system. Task chains never cross a cluster,
// so a single task's dirty closure is its own cluster — on the dense
// 4-processor grid shapes above every chain visits every processor, the
// closure is the whole system, and incremental deltas legitimately degrade
// to full re-analysis.
func deltaBenchSystem(tb testing.TB) *model.System {
	tb.Helper()
	const shards = 8
	merged := &model.System{}
	for s := 0; s < shards; s++ {
		cfg := workload.DefaultConfig(3, 0.6)
		cfg.Processors = 2
		cfg.Tasks = 6
		cfg.Seed = 17 + int64(s)
		sys, err := workload.Generate(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		off := len(merged.Procs)
		for _, p := range sys.Procs {
			p.Name = fmt.Sprintf("S%d/%s", s, p.Name)
			merged.Procs = append(merged.Procs, p)
		}
		for _, t := range sys.Tasks {
			t.Name = fmt.Sprintf("S%d/%s", s, t.Name)
			t.Subtasks = append([]model.Subtask(nil), t.Subtasks...)
			for i := range t.Subtasks {
				t.Subtasks[i].Proc += off
			}
			merged.Tasks = append(merged.Tasks, t)
		}
	}
	if err := merged.Validate(); err != nil {
		tb.Fatal(err)
	}
	return merged
}

// BenchmarkIncrementalDeltaFull is the reference cost BenchmarkIncremental
// Delta beats: a full SA/DS re-analysis of the post-delta sharded system.
// Both benchmarks Reset outside the loop — validation and index rebuild
// cost the same either way, so the pair isolates the solve work the
// incremental path actually avoids.
func BenchmarkIncrementalDeltaFull(b *testing.B) {
	opts := analysis.DefaultOptions()
	next := deltaBenchSystem(b)
	next.Tasks[0].Subtasks[0].Exec++
	an, err := analysis.NewAnalyzer(next, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.AnalyzeDS()
	}
}

// BenchmarkIncrementalDelta prices rtsyncd's middle path: one task's first
// subtask changes execution time and SA/DS re-solves only the dirty
// processors' dependency closure, seeded from the previous bounds
// (exactness pinned by TestIncrementalMatchesFull).
func BenchmarkIncrementalDelta(b *testing.B) {
	opts := analysis.DefaultOptions()
	old := deltaBenchSystem(b)
	oldRes, err := analysis.AnalyzeDS(old, opts)
	if err != nil {
		b.Fatal(err)
	}
	next := old.Clone()
	next.Tasks[0].Subtasks[0].Exec++
	dirty := make([]bool, len(next.Procs))
	analysis.DirtyProcs(dirty, old, 0)
	analysis.DirtyProcs(dirty, next, 0)
	prev := prevResponses(old, oldRes, next)
	an, err := analysis.NewAnalyzer(next, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.AnalyzeDSFrom(prev, dirty)
	}
}
