package experiments

import (
	"fmt"

	"rtsync/internal/record"
	"rtsync/internal/report"
	"rtsync/internal/workload"
)

// FailureRateResult is the outcome of the Figure 12 experiment: per
// configuration, the fraction of systems for which Algorithm SA/DS fails to
// produce finite EER bounds (any task's bound exceeds 300 × its period).
type FailureRateResult struct {
	// Rates holds one observation per system: 1 for failure, 0 for
	// success, so Mean() is the failure rate and the sample carries a
	// binomial confidence interval.
	Rates *Grid
}

// NewFailureRateResult returns an empty Figure 12 view.
func NewFailureRateResult() *FailureRateResult {
	return &FailureRateResult{Rates: NewGrid("DS failure rate")}
}

// Fig12FailureRate reproduces Figure 12: "The Failure Rates as a Function
// of Configurations for the DS Protocol".
func Fig12FailureRate(p Params) (*FailureRateResult, error) {
	res := NewFailureRateResult()
	if err := runFig12(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runFig12(p Params, res *FailureRateResult) error {
	p = p.withDefaults()
	// Only Failed() matters here, so SA/DS may stop at the first
	// infinite bound.
	p.Analysis.StopOnFailure = true
	err := sweep(p, "fig12", res, func(w *worker, cfg workload.Config) error {
		sys, err := w.gen.Generate(cfg)
		if err != nil {
			return err
		}
		w.lap(phaseGenerate)
		if err := w.an.Reset(sys, p.Analysis); err != nil {
			return err
		}
		failed := 0.0
		if w.an.AnalyzeDS().Failed() {
			failed = 1.0
		}
		w.lap(phaseAnalyze)
		w.noteSchedulable(failed == 0)
		w.rec.AddVerdict("ds", failed == 0)
		w.rec.AddObs("failed", failed)
		return nil
	})
	if err != nil {
		return fmt.Errorf("figure 12: %w", err)
	}
	return nil
}

// Apply folds one committed record into the failure-rate grid.
func (r *FailureRateResult) Apply(rec *record.CellRecord) error {
	cell := CellKey{N: rec.N, U: rec.UPct}
	for i := range rec.Obs {
		if rec.Obs[i].Series == "failed" {
			r.Rates.Sample(cell).Add(rec.Obs[i].Value)
		}
	}
	return nil
}

// Table renders the failure-rate grid in the paper's layout.
func (r *FailureRateResult) Table() *report.Table {
	ns, us := r.Rates.Axes()
	g := report.NewGrid("Figure 12 — DS failure rate (fraction of systems with infinite SA/DS bounds)", ns, us)
	for _, k := range r.Rates.Keys() {
		g.Setf(k.N, k.U, r.Rates.Cells[k].Mean())
	}
	return g.Table()
}

// BoundRatioResult is the outcome of the Figure 13 experiment: per
// configuration, the average over tasks of (SA/DS bound ÷ SA/PM bound),
// restricted to systems whose SA/DS bounds are all finite, as in §5.2.
type BoundRatioResult struct {
	Ratios *Grid
	// HolisticRatios is the same ratio with the holistic analysis
	// (Tindell & Clark, reference [18]) in place of Algorithm SA/DS —
	// the analysis-comparison ablation A6. Holistic bounds are never
	// looser than SA/DS's, so these ratios are <= Ratios cell-wise.
	HolisticRatios *Grid
	// FiniteSystems and TotalSystems record how many systems survived
	// the finite-bound filter per cell.
	FiniteSystems map[CellKey]int
	TotalSystems  map[CellKey]int
}

// NewBoundRatioResult returns an empty Figure 13 view.
func NewBoundRatioResult() *BoundRatioResult {
	return &BoundRatioResult{
		Ratios:         NewGrid("bound ratio SA-DS / SA-PM"),
		HolisticRatios: NewGrid("bound ratio holistic / SA-PM"),
		FiniteSystems:  make(map[CellKey]int),
		TotalSystems:   make(map[CellKey]int),
	}
}

// Fig13BoundRatio reproduces Figure 13: "Bound Ratios as a Function of
// Configurations".
func Fig13BoundRatio(p Params) (*BoundRatioResult, error) {
	res := NewBoundRatioResult()
	if err := runFig13(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runFig13(p Params, res *BoundRatioResult) error {
	p = p.withDefaults()
	err := sweep(p, "fig13", res, func(w *worker, cfg workload.Config) error {
		sys, err := w.gen.Generate(cfg)
		if err != nil {
			return err
		}
		w.lap(phaseGenerate)
		// One Reset serves all three analyses: each Analyze method owns a
		// distinct Result, so ds/pm/hol stay valid side by side.
		if err := w.an.Reset(sys, p.Analysis); err != nil {
			return err
		}
		ds := w.an.AnalyzeDS()
		w.noteSchedulable(!ds.Failed())
		if ds.Failed() {
			w.lap(phaseAnalyze)
			w.rec.AddVerdict("ds", false)
			w.rec.AddTally("total", 1)
			return nil
		}
		pm := w.an.AnalyzePM()
		hol := w.an.AnalyzeHolistic()
		w.lap(phaseAnalyze)
		w.rec.AddVerdict("ds", true)
		w.rec.AddTally("total", 1)
		w.rec.AddTally("finite", 1)
		for i := range sys.Tasks {
			if pm.TaskEER[i].IsInfinite() || pm.TaskEER[i] == 0 {
				continue
			}
			w.rec.AddObs("ratio", float64(ds.TaskEER[i])/float64(pm.TaskEER[i]))
			if !hol.TaskEER[i].IsInfinite() {
				w.rec.AddObs("hol_ratio", float64(hol.TaskEER[i])/float64(pm.TaskEER[i]))
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("figure 13: %w", err)
	}
	return nil
}

// Apply folds one committed record into the bound-ratio grids.
func (r *BoundRatioResult) Apply(rec *record.CellRecord) error {
	cell := CellKey{N: rec.N, U: rec.UPct}
	for i := range rec.Tallies {
		switch rec.Tallies[i].Key {
		case "total":
			r.TotalSystems[cell] += int(rec.Tallies[i].N)
		case "finite":
			r.FiniteSystems[cell] += int(rec.Tallies[i].N)
		}
	}
	for i := range rec.Obs {
		switch rec.Obs[i].Series {
		case "ratio":
			r.Ratios.Sample(cell).Add(rec.Obs[i].Value)
		case "hol_ratio":
			r.HolisticRatios.Sample(cell).Add(rec.Obs[i].Value)
		}
	}
	return nil
}

// Table renders the bound-ratio grid with means (cells with no finite
// systems render as "-").
func (r *BoundRatioResult) Table() *report.Table {
	ns, us := r.Ratios.Axes()
	g := report.NewGrid("Figure 13 — average bound ratio SA/DS ÷ SA/PM (finite-bound systems only)", ns, us)
	for _, k := range r.Ratios.Keys() {
		if r.Ratios.Cells[k].N() > 0 {
			g.Setf(k.N, k.U, r.Ratios.Cells[k].Mean())
		}
	}
	return g.Table()
}

// HolisticTable renders ablation A6: the holistic analysis's bound ratio
// against SA/PM, for side-by-side comparison with Figure 13's SA/DS column.
func (r *BoundRatioResult) HolisticTable() *report.Table {
	ns, us := r.HolisticRatios.Axes()
	g := report.NewGrid("Ablation A6 — average bound ratio holistic ÷ SA/PM (same systems as Figure 13)", ns, us)
	for _, k := range r.HolisticRatios.Keys() {
		if r.HolisticRatios.Cells[k].N() > 0 {
			g.Setf(k.N, k.U, r.HolisticRatios.Cells[k].Mean())
		}
	}
	return g.Table()
}

// CITable renders the 90% confidence half-widths the paper reports as
// "negligibly small for most configurations".
func (r *BoundRatioResult) CITable() *report.Table {
	ns, us := r.Ratios.Axes()
	g := report.NewGrid("Figure 13 — 90% CI half-width of the bound ratio", ns, us)
	for _, k := range r.Ratios.Keys() {
		if r.Ratios.Cells[k].N() > 1 {
			g.Setf(k.N, k.U, r.Ratios.Cells[k].CI(0.90))
		}
	}
	return g.Table()
}
