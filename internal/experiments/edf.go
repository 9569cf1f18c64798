package experiments

import (
	"fmt"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/priority"
	"rtsync/internal/record"
	"rtsync/internal/report"
	"rtsync/internal/sim"
	"rtsync/internal/workload"
)

// EDFResult is the outcome of extension A8: fixed-priority versus EDF
// end-to-end scheduling on the same workloads, under the RG protocol.
type EDFResult struct {
	// FPSchedulable and EDFSchedulable hold 0/1 observations per system:
	// 1 when the respective analysis certifies every task within its
	// end-to-end deadline (SA/PM bounds for FP; demand-bound test plus
	// summed local deadlines for EDF).
	FPSchedulable, EDFSchedulable *Grid
	// AvgEERRatio is avg EER under EDF ÷ avg EER under FP (simulated,
	// RG protocol, one observation per task).
	AvgEERRatio *Grid
}

// NewEDFResult returns an empty A8 view.
func NewEDFResult() *EDFResult {
	return &EDFResult{
		FPSchedulable:  NewGrid("FP schedulable"),
		EDFSchedulable: NewGrid("EDF schedulable"),
		AvgEERRatio:    NewGrid("EDF/FP avg EER"),
	}
}

// EDFStudy runs extension A8. Local deadlines are assigned with the
// proportional slicing policy, mirroring the paper's PD priority
// assignment.
func EDFStudy(p Params) (*EDFResult, error) {
	res := NewEDFResult()
	if err := runEDF(p, res); err != nil {
		return nil, err
	}
	return res, nil
}

func runEDF(p Params, res *EDFResult) error {
	p = p.withDefaults()
	err := sweep(p, "edf", res, func(w *worker, cfg workload.Config) error {
		sc, ok := w.scratch.(*edfScratch)
		if !ok {
			sc = &edfScratch{rgP: sim.NewRG()}
			w.scratch = sc
		}
		sys, err := w.gen.Generate(cfg)
		if err != nil {
			return err
		}
		if err := priority.AssignLocalDeadlines(sys, priority.ProportionalSlice); err != nil {
			return err
		}
		w.lap(phaseGenerate)

		if err := w.an.Reset(sys, p.Analysis); err != nil {
			return err
		}
		pmRes := w.an.AnalyzePM()
		edfRes, err := analysis.AnalyzeEDF(sys, p.Analysis)
		if err != nil {
			return err
		}
		fpOK, edfOK := 0.0, 0.0
		if pmRes.AllSchedulable(sys) {
			fpOK = 1
		}
		if edfRes.AllSchedulable(sys) {
			edfOK = 1
		}
		w.lap(phaseAnalyze)

		// Both runs reuse one RG instance; each run's metrics are
		// snapshotted so the FP and EDF results coexist.
		horizon := model.Time(int64(sys.MaxPeriod()) * p.HorizonPeriods)
		fpOut, err := w.sim.Run(sys, sim.Config{Protocol: sc.rgP, Horizon: horizon})
		if err != nil {
			return err
		}
		sc.fp.CopyFrom(fpOut.Metrics)
		edfOut, err := w.sim.Run(sys, sim.Config{Protocol: sc.rgP, Scheduler: sim.EDF, Horizon: horizon})
		if err != nil {
			return err
		}
		sc.edf.CopyFrom(edfOut.Metrics)
		w.lap(phaseSimulate)

		w.rec.AddVerdict("fp", fpOK == 1)
		w.rec.AddVerdict("edf", edfOK == 1)
		w.rec.AddObs("fp_ok", fpOK)
		w.rec.AddObs("edf_ok", edfOK)
		for i := range sys.Tasks {
			if sc.fp.Tasks[i].Completed == 0 || sc.edf.Tasks[i].Completed == 0 {
				continue
			}
			den := sc.fp.Tasks[i].AvgEER()
			if den <= 0 {
				continue
			}
			w.rec.AddObs("eer_edf_fp", sc.edf.Tasks[i].AvgEER()/den)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("EDF study: %w", err)
	}
	return nil
}

// Apply folds one committed record into the schedulability and ratio grids.
func (r *EDFResult) Apply(rec *record.CellRecord) error {
	cell := CellKey{N: rec.N, U: rec.UPct}
	for i := range rec.Obs {
		switch rec.Obs[i].Series {
		case "fp_ok":
			r.FPSchedulable.Sample(cell).Add(rec.Obs[i].Value)
		case "edf_ok":
			r.EDFSchedulable.Sample(cell).Add(rec.Obs[i].Value)
		case "eer_edf_fp":
			r.AvgEERRatio.Sample(cell).Add(rec.Obs[i].Value)
		}
	}
	return nil
}

// edfScratch is the EDF study's per-worker retained state: one RG instance
// and the FP/EDF metrics snapshots.
type edfScratch struct {
	fp, edf sim.Metrics
	rgP     *sim.RG
}

// Table summarizes A8 per configuration.
func (r *EDFResult) Table() *report.Table {
	t := report.NewTable("Extension A8 — fixed-priority vs EDF (RG protocol, proportional deadline slices)",
		"config", "FP schedulable", "EDF schedulable", "EDF/FP avg EER")
	for _, k := range r.FPSchedulable.Keys() {
		fp := r.FPSchedulable.Cells[k]
		edf := r.EDFSchedulable.Cells[k]
		row := []string{k.String(), fmt.Sprintf("%.2f", fp.Mean())}
		if edf != nil {
			row = append(row, fmt.Sprintf("%.2f", edf.Mean()))
		} else {
			row = append(row, "-")
		}
		if s, ok := r.AvgEERRatio.Cells[k]; ok && s.N() > 0 {
			row = append(row, fmt.Sprintf("%.3f", s.Mean()))
		} else {
			row = append(row, "-")
		}
		t.AddRow(row...)
	}
	return t
}
