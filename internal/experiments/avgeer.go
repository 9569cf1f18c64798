package experiments

import (
	"fmt"

	"rtsync/internal/model"
	"rtsync/internal/record"
	"rtsync/internal/report"
	"rtsync/internal/sim"
	"rtsync/internal/workload"
)

// AvgEERResult is the outcome of the simulation study behind Figures 14,
// 15, and 16, plus the RG rule-2 ablation (A1) and the output-jitter
// comparison (A2). Each grid aggregates one per-task observation per
// generated system.
type AvgEERResult struct {
	// PMDS is Figure 14: avg EER under PM ÷ avg EER under DS.
	PMDS *Grid
	// RGDS is Figure 15: avg EER under RG ÷ avg EER under DS.
	RGDS *Grid
	// PMRG is Figure 16: avg EER under PM ÷ avg EER under RG.
	PMRG *Grid
	// RG1RG is ablation A1: avg EER under RG with rule 1 only ÷ full RG.
	// Values >= 1 quantify rule 2's benefit.
	RG1RG *Grid
	// JitterPM/JitterRG/JitterDS are ablation A2: the per-task maximum
	// output jitter normalized by the task period, per protocol.
	JitterPM, JitterRG, JitterDS *Grid
	// Skipped counts systems skipped because SA/PM produced an infinite
	// bound (PM cannot be configured) per cell.
	Skipped map[CellKey]int
}

// NewAvgEERResult returns an empty Figures 14–16 view.
func NewAvgEERResult() *AvgEERResult {
	return &AvgEERResult{
		PMDS:     NewGrid("PM/DS"),
		RGDS:     NewGrid("RG/DS"),
		PMRG:     NewGrid("PM/RG"),
		RG1RG:    NewGrid("RG1/RG"),
		JitterPM: NewGrid("jitter PM"),
		JitterRG: NewGrid("jitter RG"),
		JitterDS: NewGrid("jitter DS"),
		Skipped:  make(map[CellKey]int),
	}
}

// AvgEERStudy simulates every generated system under DS, PM, RG, and
// RG-rule-1-only and aggregates the paper's three ratio figures plus the
// ablations. MPM is omitted from the sweep: under the simulated ideal
// conditions it produces schedules identical to PM (§3.1, verified by the
// sim package's tests).
func AvgEERStudy(p Params) (*AvgEERResult, error) {
	res := NewAvgEERResult()
	if err := runAvgEER(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runAvgEER(p Params, res *AvgEERResult) error {
	p = p.withDefaults()
	err := sweep(p, "avgeer", res, func(w *worker, cfg workload.Config) error {
		sc, ok := w.scratch.(*avgeerScratch)
		if !ok {
			sc = &avgeerScratch{
				bounds: make(sim.Bounds),
				dsP:    sim.NewDS(),
				pmP:    sim.NewPM(nil),
				rgP:    sim.NewRG(),
				rg1P:   sim.NewRGRule1Only(),
			}
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
			w.noteSchedulable(false)
			w.rec.AddVerdict("pm", false)
			w.rec.AddTally("skipped", 1)
			return nil
		}
		w.lap(phaseAnalyze)
		w.noteSchedulable(true)
		sc.pmP.SetBounds(sc.bounds)

		horizon := model.Time(int64(sys.MaxPeriod()) * p.HorizonPeriods)
		// Each run's Outcome is invalidated by the next, so every run is
		// snapshotted into the worker's retained Metrics before the next.
		if err := runSnapshot(w, &sc.ds, sc.dsP, sys, horizon, cfg); err != nil {
			return err
		}
		if err := runSnapshot(w, &sc.pm, sc.pmP, sys, horizon, cfg); err != nil {
			return err
		}
		if err := runSnapshot(w, &sc.rg, sc.rgP, sys, horizon, cfg); err != nil {
			return err
		}
		if err := runSnapshot(w, &sc.rg1, sc.rg1P, sys, horizon, cfg); err != nil {
			return err
		}
		w.lap(phaseSimulate)

		fillAvgEERObs(&w.rec, sys, &sc.ds, &sc.pm, &sc.rg, &sc.rg1)
		return nil
	})
	if err != nil {
		return fmt.Errorf("average-EER study: %w", err)
	}
	return nil
}

// fillAvgEERObs records a simulated unit's observations: the PM verdict,
// the per-task ratio and jitter series, and the raw average EERs.
func fillAvgEERObs(rec *record.CellRecord, sys *model.System, ds, pm, rg, rg1 *sim.Metrics) {
	rec.AddVerdict("pm", true)
	for i := range sys.Tasks {
		addRatioObs(rec, "pm_ds", pm, ds, i)
		addRatioObs(rec, "rg_ds", rg, ds, i)
		addRatioObs(rec, "pm_rg", pm, rg, i)
		addRatioObs(rec, "rg1_rg", rg1, rg, i)
		period := float64(sys.Tasks[i].Period)
		addJitterObs(rec, "jit_pm", pm, i, period)
		addJitterObs(rec, "jit_rg", rg, i, period)
		addJitterObs(rec, "jit_ds", ds, i, period)
	}
	// Raw simulated per-task average EERs, Param = task index. No view
	// consumes these today; they make the store self-contained for
	// post-hoc analyses beyond the paper's ratio figures.
	for i := range sys.Tasks {
		addEERObs(rec, "eer_ds", ds, i)
		addEERObs(rec, "eer_pm", pm, i)
		addEERObs(rec, "eer_rg", rg, i)
	}
}

// Apply folds one committed record into the ratio and jitter grids.
func (r *AvgEERResult) Apply(rec *record.CellRecord) error {
	cell := CellKey{N: rec.N, U: rec.UPct}
	for i := range rec.Tallies {
		if rec.Tallies[i].Key == "skipped" {
			r.Skipped[cell] += int(rec.Tallies[i].N)
		}
	}
	for i := range rec.Obs {
		o := &rec.Obs[i]
		switch o.Series {
		case "pm_ds":
			r.PMDS.Sample(cell).Add(o.Value)
		case "rg_ds":
			r.RGDS.Sample(cell).Add(o.Value)
		case "pm_rg":
			r.PMRG.Sample(cell).Add(o.Value)
		case "rg1_rg":
			r.RG1RG.Sample(cell).Add(o.Value)
		case "jit_pm":
			r.JitterPM.Sample(cell).Add(o.Value)
		case "jit_rg":
			r.JitterRG.Sample(cell).Add(o.Value)
		case "jit_ds":
			r.JitterDS.Sample(cell).Add(o.Value)
		}
	}
	return nil
}

// avgeerScratch is the study's per-worker retained state: one refilled
// bounds map, one reused instance of each protocol, and one Metrics
// snapshot per protocol so all four runs' results coexist.
type avgeerScratch struct {
	bounds          sim.Bounds
	ds, pm, rg, rg1 sim.Metrics
	dsP             *sim.DS
	pmP             *sim.PM
	rgP             *sim.RG
	rg1P            *sim.RG
}

// runSnapshot simulates sys under protocol on the worker's Runner and
// deep-copies the outcome's metrics into dst (backing arrays reused).
func runSnapshot(w *worker, dst *sim.Metrics, protocol sim.Protocol, sys *model.System, horizon model.Time, cfg workload.Config) error {
	out, err := w.sim.Run(sys, sim.Config{Protocol: protocol, Horizon: horizon})
	if err != nil {
		return fmt.Errorf("%s on %s seed %d: %w", protocol.Name(), cfg.Label(), cfg.Seed, err)
	}
	dst.CopyFrom(out.Metrics)
	return nil
}

// addRatioObs records num's/den's average-EER ratio for task i when both
// protocols completed instances and the denominator is positive.
func addRatioObs(rec *record.CellRecord, series string, num, den *sim.Metrics, i int) {
	if num.Tasks[i].Completed == 0 || den.Tasks[i].Completed == 0 {
		return
	}
	d := den.Tasks[i].AvgEER()
	if d <= 0 {
		return
	}
	rec.AddObs(series, num.Tasks[i].AvgEER()/d)
}

// addJitterObs records task i's period-normalized max output jitter when at
// least two instances completed.
func addJitterObs(rec *record.CellRecord, series string, m *sim.Metrics, i int, period float64) {
	if m.Tasks[i].Completed >= 2 {
		rec.AddObs(series, float64(m.Tasks[i].MaxOutputJitter)/period)
	}
}

// addEERObs records task i's raw average EER, tagged with the task index.
func addEERObs(rec *record.CellRecord, series string, m *sim.Metrics, i int) {
	if m.Tasks[i].Completed == 0 {
		return
	}
	rec.AddObsP(series, float64(i), m.Tasks[i].AvgEER())
}

// ratioTable renders one ratio grid.
func ratioTable(title string, g *Grid) *report.Table {
	ns, us := g.Axes()
	rg := report.NewGrid(title, ns, us)
	for _, k := range g.Keys() {
		if g.Cells[k].N() > 0 {
			rg.Setf(k.N, k.U, g.Cells[k].Mean())
		}
	}
	return rg.Table()
}

// Fig14Table renders Figure 14 (PM/DS ratio).
func (r *AvgEERResult) Fig14Table() *report.Table {
	return ratioTable("Figure 14 — average EER ratio PM ÷ DS", r.PMDS)
}

// Fig15Table renders Figure 15 (RG/DS ratio).
func (r *AvgEERResult) Fig15Table() *report.Table {
	return ratioTable("Figure 15 — average EER ratio RG ÷ DS", r.RGDS)
}

// Fig16Table renders Figure 16 (PM/RG ratio).
func (r *AvgEERResult) Fig16Table() *report.Table {
	return ratioTable("Figure 16 — average EER ratio PM ÷ RG", r.PMRG)
}

// RGRule2Table renders ablation A1 (RG rule-1-only ÷ full RG).
func (r *AvgEERResult) RGRule2Table() *report.Table {
	return ratioTable("Ablation A1 — average EER ratio RG(rule 1 only) ÷ RG", r.RG1RG)
}

// JitterTable renders ablation A2: mean over tasks of the maximum output
// jitter divided by the task period, per protocol.
func (r *AvgEERResult) JitterTable() *report.Table {
	t := report.NewTable("Ablation A2 — max output jitter / period (mean over tasks)",
		"config", "DS", "RG", "PM")
	for _, k := range r.JitterDS.Keys() {
		row := []string{k.String()}
		for _, g := range []*Grid{r.JitterDS, r.JitterRG, r.JitterPM} {
			s, ok := g.Cells[k]
			if !ok || s.N() == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.4f", s.Mean()))
		}
		t.AddRow(row...)
	}
	return t
}
