package experiments

import (
	"fmt"
	"math/rand"

	"rtsync/internal/model"
	"rtsync/internal/record"
	"rtsync/internal/report"
	"rtsync/internal/sim"
	"rtsync/internal/workload"
)

// jitterProtoNames is the fixed protocol order of the release-jitter study:
// display names for tables, record series suffixes for the store.
var (
	jitterProtoNames    = [4]string{"DS", "PM", "MPM", "RG"}
	jitterVioSeries     = [4]string{"vios_ds", "vios_pm", "vios_mpm", "vios_rg"}
	jitterHasVioSeries  = [4]string{"has_vio_ds", "has_vio_pm", "has_vio_mpm", "has_vio_rg"}
	jitterSkippedSeries = "skipped"
)

// ReleaseJitterResult is the outcome of extension A3: simulate with
// sporadic first releases (random extra delay up to Fraction of each
// task's period before each first-subtask release) and count precedence
// violations per protocol. §3.1 predicts PM breaks while DS, MPM, and RG
// stay correct.
type ReleaseJitterResult struct {
	// Fraction is the jitter fraction this view aggregates. Records carry
	// the fraction as the obs Param, so one store can hold several jitter
	// sweeps and each view picks out its own.
	Fraction float64
	// ViolationsPerSystem maps protocol name to a per-cell sample of
	// precedence violations per system.
	ViolationsPerSystem map[string]*Grid
	// SystemsWithViolations maps protocol name to the per-cell count of
	// systems with at least one violation.
	SystemsWithViolations map[string]map[CellKey]int
	Skipped               map[CellKey]int
}

// NewReleaseJitterResult returns an empty A3 view for one jitter fraction.
func NewReleaseJitterResult(jitterFraction float64) *ReleaseJitterResult {
	res := &ReleaseJitterResult{
		Fraction:              jitterFraction,
		ViolationsPerSystem:   make(map[string]*Grid, len(jitterProtoNames)),
		SystemsWithViolations: make(map[string]map[CellKey]int, len(jitterProtoNames)),
		Skipped:               make(map[CellKey]int),
	}
	for _, n := range jitterProtoNames {
		res.ViolationsPerSystem[n] = NewGrid(n)
		res.SystemsWithViolations[n] = make(map[CellKey]int)
	}
	return res
}

// ReleaseJitterStudy runs extension A3. jitterFraction is the maximum extra
// inter-release delay as a fraction of the period (e.g. 0.5).
func ReleaseJitterStudy(p Params, jitterFraction float64) (*ReleaseJitterResult, error) {
	res := NewReleaseJitterResult(jitterFraction)
	if err := runReleaseJitter(p, jitterFraction, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runReleaseJitter(p Params, jitterFraction float64, res *ReleaseJitterResult) error {
	p = p.withDefaults()
	if jitterFraction < 0 {
		return fmt.Errorf("release-jitter study: negative jitter fraction %v", jitterFraction)
	}
	err := sweep(p, "release-jitter", res, func(w *worker, cfg workload.Config) error {
		sc, ok := w.scratch.(*jitterScratch)
		if !ok {
			sc = &jitterScratch{bounds: make(sim.Bounds)}
			sc.delay.rng = rand.New(rand.NewSource(0))
			sc.delay.frac = jitterFraction
			sc.delayFn = sc.delay.delay
			sc.protocols = [4]sim.Protocol{sim.NewDS(), sim.NewPM(nil), sim.NewMPM(nil), sim.NewRG()}
			w.scratch = sc
		}
		sys, err := w.gen.Generate(cfg)
		if err != nil {
			return err
		}
		w.lap(phaseGenerate)
		if err := w.an.Reset(sys, p.Analysis); err != nil {
			return err
		}
		if !fillPMBounds(sc.bounds, w.an.AnalyzePM()) {
			w.lap(phaseAnalyze)
			w.rec.AddVerdict("pm", false)
			w.rec.AddObsP(jitterSkippedSeries, jitterFraction, 1)
			return nil
		}
		w.lap(phaseAnalyze)
		sc.protocols[1].(*sim.PM).SetBounds(sc.bounds)
		sc.protocols[2].(*sim.MPM).SetBounds(sc.bounds)

		// One jitter sequence shared by all protocols so the comparison
		// is paired: delay(i, m) is deterministic in (seed, i, m).
		sc.delay.sys = sys
		sc.delay.seed = cfg.Seed
		horizon := model.Time(int64(sys.MaxPeriod()) * p.HorizonPeriods)
		for pi, protocol := range sc.protocols {
			out, err := w.sim.Run(sys, sim.Config{
				Protocol:          protocol,
				Horizon:           horizon,
				FirstReleaseDelay: sc.delayFn,
			})
			if err != nil {
				return fmt.Errorf("%s: %w", jitterProtoNames[pi], err)
			}
			sc.vios[pi] = out.Metrics.PrecedenceViolations
		}
		w.lap(phaseSimulate)
		w.rec.AddVerdict("pm", true)
		for pi := range sc.protocols {
			w.rec.AddObsP(jitterVioSeries[pi], jitterFraction, float64(sc.vios[pi]))
			if sc.vios[pi] > 0 {
				w.rec.AddObsP(jitterHasVioSeries[pi], jitterFraction, 1)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("release-jitter study: %w", err)
	}
	return nil
}

// Apply folds one committed record into the violation grids, keeping only
// observations tagged with this view's jitter fraction.
func (r *ReleaseJitterResult) Apply(rec *record.CellRecord) error {
	cell := CellKey{N: rec.N, U: rec.UPct}
	for i := range rec.Obs {
		o := &rec.Obs[i]
		if o.Param != r.Fraction {
			continue
		}
		if o.Series == jitterSkippedSeries {
			r.Skipped[cell] += int(o.Value)
			continue
		}
		for pi, name := range jitterProtoNames {
			switch o.Series {
			case jitterVioSeries[pi]:
				r.ViolationsPerSystem[name].Sample(cell).Add(o.Value)
			case jitterHasVioSeries[pi]:
				r.SystemsWithViolations[name][cell] += int(o.Value)
			}
		}
	}
	return nil
}

// jitterScratch is the release-jitter study's per-worker retained state: a
// refilled bounds map, the four protocol instances in the fixed DS, PM,
// MPM, RG order, the reused delay sampler (and its cached function value),
// and the per-protocol violation counts of the current system.
type jitterScratch struct {
	bounds    sim.Bounds
	protocols [4]sim.Protocol
	delay     jitterDelay
	delayFn   func(int, int64) model.Duration
	vios      [4]int64
}

// jitterDelay samples the sporadic first-release delay deterministically
// in (seed, task, instance), reseeding a retained rng per call — the same
// draw a fresh rand.New(rand.NewSource(...)) would produce, without the
// per-call allocation.
type jitterDelay struct {
	rng  *rand.Rand
	sys  *model.System
	seed int64
	frac float64
}

func (d *jitterDelay) delay(task int, m int64) model.Duration {
	d.rng.Seed(d.seed + int64(task)*104729 + m*31)
	maxd := int64(float64(d.sys.Tasks[task].Period) * d.frac)
	if maxd <= 0 {
		return 0
	}
	return model.Duration(d.rng.Int63n(maxd + 1))
}

// Table summarizes A3: mean violations per system for each protocol.
func (r *ReleaseJitterResult) Table() *report.Table {
	t := report.NewTable("Extension A3 — precedence violations per system under sporadic first releases",
		"config", "DS", "PM", "MPM", "RG")
	keys := r.ViolationsPerSystem["PM"].Keys()
	for _, k := range keys {
		row := []string{k.String()}
		for _, name := range []string{"DS", "PM", "MPM", "RG"} {
			s, ok := r.ViolationsPerSystem[name].Cells[k]
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", s.Mean()))
		}
		t.AddRow(row...)
	}
	return t
}

// OverheadTable reproduces §3.3's implementation-complexity comparison as a
// table (experiment E10).
func OverheadTable() *report.Table {
	t := report.NewTable("§3.3 — implementation complexity and run-time overhead",
		"protocol", "sync interrupt", "timer interrupt", "interrupts/instance",
		"variables/subtask", "global clock")
	for _, p := range []sim.Protocol{sim.NewDS(), sim.NewPM(nil), sim.NewMPM(nil), sim.NewRG()} {
		o := p.Overhead()
		yn := func(b bool) string {
			if b {
				return "yes"
			}
			return "no"
		}
		t.AddRow(p.Name(), yn(o.SyncInterrupt), yn(o.TimerInterrupt),
			fmt.Sprintf("%d", o.InterruptsPerInstance),
			fmt.Sprintf("%d", o.VariablesPerSubtask), yn(o.NeedsGlobalClock))
	}
	return t
}
