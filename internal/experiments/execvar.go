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

// ExecVariationResult is the outcome of extension A9: how execution-time
// variation (§6's first open problem) moves the protocols' average EER
// times apart. For each best-case fraction f, every instance's actual
// demand is drawn uniformly from [f·WCET, WCET]; the analyses stay
// WCET-based, so PM's releases stay pinned to the worst-case phases while
// DS and RG track the actual demand.
type ExecVariationResult struct {
	// Fractions are the swept BCET/WCET ratios, descending variation.
	Fractions []float64
	// PMDS[f] and RGDS[f] aggregate per-task average-EER ratios at each
	// fraction, over all configurations.
	PMDS, RGDS map[float64]*Grid
}

// NewExecVariationResult returns an empty A9 view over the given fractions.
func NewExecVariationResult(fractions []float64) *ExecVariationResult {
	res := &ExecVariationResult{
		Fractions: fractions,
		PMDS:      make(map[float64]*Grid, len(fractions)),
		RGDS:      make(map[float64]*Grid, len(fractions)),
	}
	for _, f := range fractions {
		res.PMDS[f] = NewGrid(fmt.Sprintf("PM/DS f=%v", f))
		res.RGDS[f] = NewGrid(fmt.Sprintf("RG/DS f=%v", f))
	}
	return res
}

// ExecVariationStudy sweeps the given BCET/WCET fractions (e.g. 1.0, 0.5,
// 0.25) over the configured workloads.
func ExecVariationStudy(p Params, fractions []float64) (*ExecVariationResult, error) {
	res := NewExecVariationResult(fractions)
	if err := runExecVariation(p, fractions, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runExecVariation(p Params, fractions []float64, res *ExecVariationResult) error {
	p = p.withDefaults()
	if len(fractions) == 0 {
		return fmt.Errorf("exec-variation study: no fractions given")
	}
	for _, f := range fractions {
		if f <= 0 || f > 1 {
			return fmt.Errorf("exec-variation study: fraction %v outside (0, 1]", f)
		}
	}
	err := sweep(p, "execvar", res, func(w *worker, cfg workload.Config) error {
		sc, ok := w.scratch.(*execvarScratch)
		if !ok {
			sc = &execvarScratch{
				bounds: make(sim.Bounds),
				dsP:    sim.NewDS(),
				pmP:    sim.NewPM(nil),
				rgP:    sim.NewRG(),
				pmds:   make([][]float64, len(fractions)),
				rgds:   make([][]float64, len(fractions)),
			}
			sc.demand.rng = rand.New(rand.NewSource(0))
			sc.demandFn = sc.demand.sample
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
			// Skip: PM not runnable. The record still commits (verdict
			// only) so the store accounts for every swept system.
			w.lap(phaseAnalyze)
			w.rec.AddVerdict("pm", false)
			return nil
		}
		w.lap(phaseAnalyze)
		sc.pmP.SetBounds(sc.bounds)
		horizon := model.Time(int64(sys.MaxPeriod()) * p.HorizonPeriods)

		// All fractions simulate before the record is filled, so the
		// per-fraction ratios buffer in retained slices until then.
		sc.demand.sys = sys
		sc.demand.seed = cfg.Seed
		for fi, f := range fractions {
			sc.demand.f = f
			sc.pmds[fi] = sc.pmds[fi][:0]
			sc.rgds[fi] = sc.rgds[fi][:0]
			if err := runVariedInto(w, &sc.ds, sc.dsP, sys, horizon, sc.demandFn); err != nil {
				return err
			}
			if err := runVariedInto(w, &sc.pm, sc.pmP, sys, horizon, sc.demandFn); err != nil {
				return err
			}
			if err := runVariedInto(w, &sc.rg, sc.rgP, sys, horizon, sc.demandFn); err != nil {
				return err
			}
			for i := range sys.Tasks {
				if sc.ds.Tasks[i].Completed == 0 || sc.ds.Tasks[i].AvgEER() <= 0 {
					continue
				}
				if sc.pm.Tasks[i].Completed > 0 {
					sc.pmds[fi] = append(sc.pmds[fi], sc.pm.Tasks[i].AvgEER()/sc.ds.Tasks[i].AvgEER())
				}
				if sc.rg.Tasks[i].Completed > 0 {
					sc.rgds[fi] = append(sc.rgds[fi], sc.rg.Tasks[i].AvgEER()/sc.ds.Tasks[i].AvgEER())
				}
			}
		}
		w.lap(phaseSimulate)
		w.rec.AddVerdict("pm", true)
		for fi, f := range fractions {
			for _, v := range sc.pmds[fi] {
				w.rec.AddObsP("pm_ds", f, v)
			}
			for _, v := range sc.rgds[fi] {
				w.rec.AddObsP("rg_ds", f, v)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("exec-variation study: %w", err)
	}
	return nil
}

// Apply folds one committed record into the per-fraction grids; fractions
// this view wasn't built with are ignored.
func (r *ExecVariationResult) Apply(rec *record.CellRecord) error {
	cell := CellKey{N: rec.N, U: rec.UPct}
	for i := range rec.Obs {
		o := &rec.Obs[i]
		switch o.Series {
		case "pm_ds":
			if g := r.PMDS[o.Param]; g != nil {
				g.Sample(cell).Add(o.Value)
			}
		case "rg_ds":
			if g := r.RGDS[o.Param]; g != nil {
				g.Sample(cell).Add(o.Value)
			}
		}
	}
	return nil
}

// execvarScratch is the exec-variation study's per-worker retained state:
// bounds map, protocol instances, per-protocol metrics snapshots, the
// reused demand sampler, and per-fraction ratio buffers.
type execvarScratch struct {
	bounds     sim.Bounds
	ds, pm, rg sim.Metrics
	dsP        *sim.DS
	pmP        *sim.PM
	rgP        *sim.RG
	demand     demandState
	demandFn   func(model.SubtaskID, int64) model.Duration
	pmds, rgds [][]float64
}

// runVariedInto simulates sys with varied execution demands and snapshots
// the metrics into dst.
func runVariedInto(w *worker, dst *sim.Metrics, protocol sim.Protocol, sys *model.System, horizon model.Time, execVar func(model.SubtaskID, int64) model.Duration) error {
	out, err := w.sim.Run(sys, sim.Config{
		Protocol: protocol,
		Horizon:  horizon,
		ExecTime: execVar,
	})
	if err != nil {
		return err
	}
	dst.CopyFrom(out.Metrics)
	return nil
}

// demandState draws instance demands uniformly from [f·WCET, WCET],
// deterministically in (seed, subtask, instance), reseeding a retained
// rng per call — the same draw the old per-call rand.New produced,
// without its allocation.
type demandState struct {
	rng  *rand.Rand
	sys  *model.System
	seed int64
	f    float64
}

func (d *demandState) sample(id model.SubtaskID, m int64) model.Duration {
	wcet := int64(d.sys.Subtask(id).Exec)
	lo := int64(float64(wcet) * d.f)
	if lo < 1 {
		lo = 1
	}
	if lo >= wcet {
		return model.Duration(wcet)
	}
	d.rng.Seed(d.seed ^ (int64(id.Task)*1_000_003 + int64(id.Sub)*7919 + m*31))
	return model.Duration(lo + d.rng.Int63n(wcet-lo+1))
}

// Table renders the A9 summary: mean PM/DS and RG/DS across the whole grid
// at each fraction.
func (r *ExecVariationResult) Table() *report.Table {
	t := report.NewTable("Extension A9 — execution-time variation (demand ~ U[f·WCET, WCET])",
		"BCET/WCET", "PM/DS avg EER", "RG/DS avg EER")
	for _, f := range r.Fractions {
		var pmds, rgds float64
		var n1, n2 int64
		for _, s := range r.PMDS[f].Cells {
			pmds += s.Mean() * float64(s.N())
			n1 += s.N()
		}
		for _, s := range r.RGDS[f].Cells {
			rgds += s.Mean() * float64(s.N())
			n2 += s.N()
		}
		row := []string{fmt.Sprintf("%.2f", f), "-", "-"}
		if n1 > 0 {
			row[1] = fmt.Sprintf("%.3f", pmds/float64(n1))
		}
		if n2 > 0 {
			row[2] = fmt.Sprintf("%.3f", rgds/float64(n2))
		}
		t.AddRow(row...)
	}
	return t
}
