package obs

import (
	"sync"
	"time"
)

// SpanPhase identifies what a recorded span covers. The pipeline phases
// mirror the sweep's per-unit stages (generate / analyze / simulate /
// commit); the remaining phases cover worker lifetimes, engine-level runs,
// and the CLI stages of single-run tools.
type SpanPhase uint8

const (
	// SpanWorker is one sweep worker goroutine's whole lifetime.
	SpanWorker SpanPhase = iota
	// SpanUnit is one swept unit end to end (generate through commit).
	SpanUnit
	// SpanGenerate, SpanAnalyze, and SpanSimulate are a unit's pipeline
	// phases. SpanTurnstileWait is the time the unit then waited to enter
	// the ordered commit window (for its lock, or for room when full), and
	// SpanCommit the deposit into the window plus any drain it led (view
	// folds + sink writes, in unit order).
	SpanGenerate
	SpanAnalyze
	SpanSimulate
	SpanCommit
	SpanTurnstileWait
	// SpanRun is one engine run (one protocol over one system) — the
	// Runner-level hook nested inside SpanSimulate.
	SpanRun
	// SpanLoad, SpanValidate, and SpanReport are CLI stages (rtsim).
	SpanLoad
	SpanValidate
	SpanReport
	// NumSpanPhases bounds the enum.
	NumSpanPhases
)

// spanPhaseNames names the phases in enum order for exports and summaries.
var spanPhaseNames = [NumSpanPhases]string{
	"worker", "unit", "generate", "analyze", "simulate", "commit",
	"turnstile-wait", "run", "load", "validate", "report",
}

// String names the phase.
func (p SpanPhase) String() string {
	if p < NumSpanPhases {
		return spanPhaseNames[p]
	}
	return "unknown"
}

// spanRec is one recorded span: 32 bytes, no pointers, appended into a
// worker-private arena. Times are nanoseconds since the tracer's epoch.
type spanRec struct {
	start int64
	dur   int64
	unit  int64 // global sweep unit order, -1 when not unit-scoped
	label int32 // index into the tracer's label table, -1 when unlabeled
	phase SpanPhase
	_     [3]byte
}

// PipelineTracer records wall-clock spans of the sweep pipeline into
// per-worker arenas and exports the run as Chrome trace-event JSON
// (loadable in ui.perfetto.dev).
//
// The design contract matches the rest of obs: disabled is free (every
// hook is a nil check on a concrete *SpanArena), and enabled stays out of
// the ordered commit path — workers append fixed-size records into
// retained worker-private arenas, so tracing changes no figure output and
// no record store byte. Arenas are merged only at export time, after the sweep drains.
type PipelineTracer struct {
	epoch time.Time

	mu      sync.Mutex
	arenas  []*SpanArena
	labels  []string
	samples []counterSample
}

// counterSample is one sampled point of the sweep-progress counter tracks.
type counterSample struct {
	ts        int64 // ns since epoch
	unitsDone int64
	rate      float64 // units per second
	schedFrac float64 // schedulable / (schedulable + unschedulable)
}

// NewPipelineTracer returns a tracer whose clock starts now.
func NewPipelineTracer() *PipelineTracer {
	return &PipelineTracer{epoch: time.Now()}
}

// Arena returns worker i's span arena, creating it (and any missing lower
// slots) on first use. The same arena is handed back for the same index
// across successive sweeps, so one tracer accumulates a whole multi-study
// run. Safe for concurrent callers; the returned arena is single-writer.
func (t *PipelineTracer) Arena(i int) *SpanArena {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.arenas) <= i {
		t.arenas = append(t.arenas, &SpanArena{epoch: t.epoch})
	}
	return t.arenas[i]
}

// RegisterLabels appends labels to the tracer's label table and returns
// the index of the first: span records refer to labels by base+offset.
// Called once per sweep (not per unit); safe for concurrent callers.
func (t *PipelineTracer) RegisterLabels(labels []string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := int32(len(t.labels))
	t.labels = append(t.labels, labels...)
	return base
}

// StartSampler samples sp into the tracer's counter tracks (units/sec,
// schedulable fraction, units done) every interval until the returned stop
// function runs. The sampler reads only SweepProgress atomics, so it never
// perturbs sweep workers.
func (t *PipelineTracer) StartSampler(sp *SweepProgress, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	sample := func() {
		s := sp.Snapshot()
		c := counterSample{ts: t.Clock(), unitsDone: s.UnitsDone, rate: s.SystemsPerSec}
		if n := s.Schedulable + s.Unschedulable; n > 0 {
			c.schedFrac = float64(s.Schedulable) / float64(n)
		}
		t.mu.Lock()
		t.samples = append(t.samples, c)
		t.mu.Unlock()
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			sample() // one final point so the tracks reach the end of the run
		})
	}
}

// Clock returns nanoseconds since the tracer's epoch (monotonic).
func (t *PipelineTracer) Clock() int64 { return time.Since(t.epoch).Nanoseconds() }

// SpanArena is one worker's private span storage: a growing slice of
// fixed-size records written by exactly one goroutine and read only after
// the sweep drains. Recording a span is an append — no locks, no
// formatting, no per-span allocation once the backing array is warm.
type SpanArena struct {
	epoch time.Time
	spans []spanRec
}

// Clock returns nanoseconds since the owning tracer's epoch.
func (a *SpanArena) Clock() int64 { return time.Since(a.epoch).Nanoseconds() }

// Record appends one span covering [start, end] (Clock values). label is a
// RegisterLabels index or -1; unit is the global sweep unit order or -1.
func (a *SpanArena) Record(phase SpanPhase, start, end int64, label int32, unit int64) {
	a.spans = append(a.spans, spanRec{start: start, dur: end - start, unit: unit, label: label, phase: phase})
}

// Len returns the number of recorded spans.
func (a *SpanArena) Len() int { return len(a.spans) }

// SpanPhaseSummary aggregates one phase across every arena.
type SpanPhaseSummary struct {
	Phase   string `json:"phase"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// SpanSummary is the compact "where did the time go" digest embedded in
// run manifests: per-phase span counts with total and maximum wall time.
// The turnstile-wait phase totals the time workers waited to enter the
// ordered commit window; the commit phase totals deposits and the drains
// they led.
type SpanSummary struct {
	Spans  int64              `json:"spans"`
	Phases []SpanPhaseSummary `json:"phases,omitempty"`
}

// Summary folds every arena into per-phase totals. Call after the sweep
// drains (arenas are read without synchronization).
func (t *PipelineTracer) Summary() SpanSummary {
	t.mu.Lock()
	arenas := t.arenas
	t.mu.Unlock()
	var count, total, max [NumSpanPhases]int64
	var s SpanSummary
	for _, a := range arenas {
		s.Spans += int64(len(a.spans))
		for i := range a.spans {
			r := &a.spans[i]
			count[r.phase]++
			total[r.phase] += r.dur
			if r.dur > max[r.phase] {
				max[r.phase] = r.dur
			}
		}
	}
	for p := SpanPhase(0); p < NumSpanPhases; p++ {
		if count[p] == 0 {
			continue
		}
		s.Phases = append(s.Phases, SpanPhaseSummary{
			Phase:   p.String(),
			Count:   count[p],
			TotalNS: total[p],
			MaxNS:   max[p],
		})
	}
	return s
}
