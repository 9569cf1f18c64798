// Package experiments reproduces the paper's evaluation (§5): one runner
// per figure, each sweeping the (N, U) configuration grid over freshly
// generated systems and aggregating per-configuration statistics with 90%
// confidence intervals.
//
// Runners are deterministic in Params.Seed and parallel across systems.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rtsync/internal/analysis"
	"rtsync/internal/obs"
	"rtsync/internal/record"
	"rtsync/internal/sim"
	"rtsync/internal/stats"
	"rtsync/internal/workload"
)

// Params configures an experiment sweep.
type Params struct {
	// Configs is the (N, U) grid; nil means the paper's 35
	// configurations.
	Configs []workload.Config
	// SystemsPerConfig is the number of systems generated per
	// configuration (the paper used 1000; the harness defaults to 100
	// for the analysis figures and expects callers to lower it for the
	// simulation figures, which cost far more per system).
	SystemsPerConfig int
	// Seed drives all generation.
	Seed int64
	// HorizonPeriods sets each simulation's horizon as a multiple of the
	// system's largest period (default 20). Analysis-only figures
	// ignore it.
	HorizonPeriods int64
	// Parallelism bounds concurrent workers (default: GOMAXPROCS).
	Parallelism int
	// Analysis tunes the schedulability analyses (default:
	// analysis.DefaultOptions, i.e. the paper's failure factor 300).
	Analysis analysis.Options
	// Progress, when non-nil, receives live sweep telemetry: per-cell
	// wall time, units done, schedulable tallies, and the current cell.
	// Workers write through private shards, never the commit window, so
	// attaching it changes no figure output and adds nothing to the
	// per-system steady-state allocation count.
	Progress *obs.SweepProgress
	// Stats, when non-nil, is attached to every worker's simulation
	// Runner, aggregating engine counters across the whole sweep. Shared
	// and atomic; nil keeps the engines on their zero-cost path.
	Stats *obs.SimStats
	// AnalysisStats, when non-nil, is attached to every worker's Analyzer,
	// aggregating fixed-point iteration histograms and solve counts across
	// the whole sweep (demand evaluations per solve, seeded solves).
	// Shared and atomic; nil keeps the analyzers on their zero-cost path.
	AnalysisStats *obs.AnalysisStats
	// Trace, when non-nil, records pipeline spans — one per swept unit
	// with generate/analyze/simulate/commit children, plus worker
	// lifetimes and waits to enter the commit window ("turnstile-wait") —
	// into per-worker arenas for Perfetto export. Workers write only their
	// private arenas, never the committed results, so tracing changes no
	// figure output and no record store byte; nil keeps every hook on the
	// zero-cost nil-check path.
	Trace *obs.PipelineTracer
	// Records, when non-nil, receives one CellRecord per swept system in
	// deterministic global unit order (the commit window serializes
	// writes), so a JSONL store written here is byte-identical at any
	// Parallelism. nil skips record encoding entirely — the default
	// zero-cost path the steady-state allocation tests pin.
	Records RecordSink
	// RecordTimings adds per-phase wall timings (generate / analyze /
	// simulate) to each record. Timings are volatile, so stores meant to
	// be byte-reproducible leave this off.
	RecordTimings bool
	// RecordSimCounts adds per-unit engine-counter deltas to each record.
	// Workers switch to private obs.SimStats banks (merged into Stats at
	// drain time) so the deltas attribute exactly one unit's work.
	RecordSimCounts bool
}

// RecordSink receives committed sweep records. Write is called from
// whichever worker drains the commit window, under the window's lock: one
// call at a time, in global unit order. It must not retain the record past
// the call.
type RecordSink interface {
	Write(*record.CellRecord) error
}

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	if p.Configs == nil {
		p.Configs = workload.PaperConfigurations()
	}
	if p.SystemsPerConfig <= 0 {
		p.SystemsPerConfig = 100
	}
	if p.HorizonPeriods <= 0 {
		p.HorizonPeriods = 20
	}
	if p.Parallelism <= 0 {
		p.Parallelism = runtime.GOMAXPROCS(0)
	}
	if p.Analysis == (analysis.Options{}) {
		p.Analysis = analysis.DefaultOptions()
	}
	return p
}

// systemSeed derives a per-system generation seed. The mixing constants
// keep (config, index) pairs from colliding across practical sweep sizes.
func (p Params) systemSeed(configIdx, sysIdx int) int64 {
	return p.Seed + int64(configIdx)*1_000_003 + int64(sysIdx)*7919 + 1
}

// CellKey identifies one configuration cell: the paper's (N, U%) tuple.
type CellKey struct {
	N int // subtasks per task
	U int // per-processor utilization, percent
}

// String renders the paper's "(N,U)" notation.
func (k CellKey) String() string { return fmt.Sprintf("(%d,%d)", k.N, k.U) }

// cellOf maps a workload configuration to its grid cell.
func cellOf(c workload.Config) CellKey {
	return CellKey{N: c.SubtasksPerTask, U: int(c.Utilization*100 + 0.5)}
}

// Grid aggregates one scalar series over the configuration grid: one
// stats.Sample per cell.
type Grid struct {
	Name  string
	Cells map[CellKey]*stats.Sample
}

// NewGrid returns an empty named grid.
func NewGrid(name string) *Grid {
	return &Grid{Name: name, Cells: make(map[CellKey]*stats.Sample)}
}

// Sample returns the cell's accumulator, creating it on first use.
func (g *Grid) Sample(k CellKey) *stats.Sample {
	s, ok := g.Cells[k]
	if !ok {
		s = &stats.Sample{}
		g.Cells[k] = s
	}
	return s
}

// Keys returns the populated cells sorted by (N, U).
func (g *Grid) Keys() []CellKey {
	keys := make([]CellKey, 0, len(g.Cells))
	for k := range g.Cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].N != keys[j].N {
			return keys[i].N < keys[j].N
		}
		return keys[i].U < keys[j].U
	})
	return keys
}

// Axes returns the sorted distinct N and U values present.
func (g *Grid) Axes() (ns, us []int) {
	seenN, seenU := map[int]bool{}, map[int]bool{}
	for k := range g.Cells {
		if !seenN[k.N] {
			seenN[k.N] = true
			ns = append(ns, k.N)
		}
		if !seenU[k.U] {
			seenU[k.U] = true
			us = append(us, k.U)
		}
	}
	sort.Ints(ns)
	sort.Ints(us)
	return ns, us
}

// worker owns one sweep goroutine's recycled pipeline state: a workload
// Generator, a simulation Runner, and an Analyzer, each reusing its
// retained storage across the worker's whole share of the sweep. scratch
// holds study-specific per-worker state (bounds maps, metrics snapshots,
// ratio buffers); a study lazily installs its own type on first use.
type worker struct {
	gen workload.Generator
	sim sim.Runner
	an  analysis.Analyzer

	scratch any

	// prog is this worker's private telemetry shard, nil when the sweep
	// runs without Params.Progress.
	prog *obs.SweepShard

	// rec is the worker's retained record scratch for curUnit, the global
	// unit in progress: refilled by beginUnit and deposited into the
	// sweep's commit window. timing and counts are the retained backing
	// values for its optional sections. recStats is the worker-private
	// counter bank used when Params.RecordSimCounts asks for exact
	// per-unit engine deltas (base is the unit-start snapshot); it is
	// merged into the sweep-wide bank when the worker drains.
	rec      record.CellRecord
	curUnit  int64
	timing   record.Timing
	counts   record.SimCounts
	timings  bool
	t0       time.Time
	recStats *obs.SimStats
	base     obs.CoreCounts

	// spans is this worker's private span arena, nil when the sweep runs
	// without Params.Trace. spanT0 is the running phase-boundary clock
	// (lap closes a phase span against it); curCell tags the spans with
	// the worker's current cell label index.
	spans   *obs.SpanArena
	spanT0  int64
	curCell int32
}

// phase names one pipeline phase for lap: it selects both the per-record
// Timing accumulator and the span phase, so studies charge wall time with
// a single call whichever telemetry is enabled.
type phase uint8

const (
	phaseGenerate phase = iota
	phaseAnalyze
	phaseSimulate
)

// spanPhaseOf maps pipeline phases onto span phases.
var spanPhaseOf = [3]obs.SpanPhase{obs.SpanGenerate, obs.SpanAnalyze, obs.SpanSimulate}

// noteSchedulable tallies one analyzed system's schedulability verdict
// into the sweep telemetry; a no-op without Params.Progress.
func (w *worker) noteSchedulable(ok bool) {
	if w.prog != nil {
		w.prog.NoteSchedulable(ok)
	}
}

// sweep runs fn once per (config, system index) pair across a worker pool
// and returns the first error in global unit order. fn receives the
// per-worker pipeline (Generator + Runner + Analyzer, recycled across the
// worker's whole share so the steady state allocates nothing per system)
// and the configuration with the per-system seed already installed. fn
// fills w.rec, which sweep has already reset for the unit and tagged with
// study. When fn returns nil, sweep seals the record and commits it into
// view and Params.Records; when fn returns an error, the unit commits that
// error instead.
//
// Workers claim units in global order (config-major, then system index)
// from one atomic counter and commit through a commitWindow, so every
// figure — including the order-sensitive floating-point accumulations —
// and every record store is bit-identical across Parallelism settings, and
// matches a fully sequential run. A worker waits only when its unit is a
// whole window ahead of the oldest unfinished one.
//
// The analyzer arrives un-Reset: fn must Reset it for each system before
// calling its Analyze methods, and must not retain their Results past the
// next Reset. Likewise the Generator's System and the Runner's Outcome are
// valid only until the worker's next unit.
//
// Each worker goroutine carries a pprof label ("cell" = the unit's (N,U)
// grid point, updated when the worker crosses a config boundary), so
// -cpuprofile output from cmd/rtexperiments attributes time per
// configuration.
//
// With Params.Progress set, each worker additionally times every unit into
// its private telemetry shard and announces config-boundary crossings as
// the "current cell". All of that writes only worker-private or atomic
// state, never the committed results: figure output stays byte-identical
// with telemetry on or off, at any Parallelism.
func sweep(p Params, study string, view View, fn func(w *worker, cfg workload.Config) error) error {
	bg := context.Background()
	labels := make([]context.Context, len(p.Configs))
	cellLabels := make([]string, len(p.Configs))
	for ci, cfg := range p.Configs {
		labels[ci] = pprof.WithLabels(bg, pprof.Labels("cell", cfg.Label()))
		cellLabels[ci] = cfg.Label()
	}
	var run *obs.SweepRun
	if p.Progress != nil {
		run = p.Progress.StartSweep(cellLabels, p.SystemsPerConfig, p.Parallelism)
	}
	var labelBase int32
	if p.Trace != nil {
		labelBase = p.Trace.RegisterLabels(cellLabels)
	}
	units := len(p.Configs) * p.SystemsPerConfig
	// A window longer than the sweep would never use its extra slots.
	win := newCommitWindow(min(slotsPerWorker*p.Parallelism, units), view, p.Records)
	perConfig, total := int64(p.SystemsPerConfig), int64(units)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < p.Parallelism; i++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var w worker
			w.timings = p.RecordTimings
			w.an.Stats = p.AnalysisStats
			if p.RecordSimCounts {
				// Private bank: per-unit deltas must not interleave with
				// other workers' runs. Merged into the shared bank below.
				w.recStats = obs.NewSimStats()
				w.sim.Stats = w.recStats
			} else {
				w.sim.Stats = p.Stats
			}
			if run != nil {
				w.prog = run.Shard(wi)
			}
			var wt0 int64
			if p.Trace != nil {
				// The arena is retained per worker index, so successive
				// sweeps of one run accumulate onto the same track.
				w.spans = p.Trace.Arena(wi)
				w.sim.Spans = w.spans
				wt0 = w.spans.Clock()
			}
			lastCI := -1
			for g := claimed.Add(1) - 1; g < total; g = claimed.Add(1) - 1 {
				ci, k := int(g/perConfig), int(g%perConfig)
				if ci != lastCI {
					pprof.SetGoroutineLabels(labels[ci])
					if p.Progress != nil {
						p.Progress.SetCurrent(&cellLabels[ci])
					}
					if w.spans != nil {
						w.curCell = labelBase + int32(ci)
						w.sim.SpanLabel = w.curCell
					}
					lastCI = ci
				}
				c := p.Configs[ci]
				c.Seed = p.systemSeed(ci, k)
				var ut0 int64
				if w.spans != nil {
					ut0 = w.spans.Clock()
				}
				var t0 time.Time
				if w.prog != nil {
					t0 = time.Now()
				}
				w.beginUnit(study, c, g)
				w.deposit(win, fn(&w, c))
				if w.prog != nil {
					// Cell wall time covers the unit and its commit.
					w.prog.UnitDone(ci, time.Since(t0))
				}
				if w.spans != nil {
					w.spans.Record(obs.SpanUnit, ut0, w.spans.Clock(), w.curCell, g)
				}
			}
			if w.spans != nil {
				w.spans.Record(obs.SpanWorker, wt0, w.spans.Clock(), -1, -1)
			}
			if w.recStats != nil && p.Stats != nil {
				p.Stats.Merge(w.recStats)
			}
			pprof.SetGoroutineLabels(bg)
		}(i)
	}
	wg.Wait()
	return win.err
}
