package experiments

import (
	"fmt"

	"rtsync/internal/model"
	"rtsync/internal/record"
	"rtsync/internal/report"
	"rtsync/internal/workload"
)

// DefaultLockingProtocols is the locking study's full protocol set in
// canonical display order. The strings are also the record series keys.
func DefaultLockingProtocols() []string { return []string{"hl", "mpcp", "dpcp"} }

// LockingResult is the outcome of the synchronization-protocol study: per
// configuration, the fraction of systems each protocol certifies fully
// schedulable (every task's EER bound within its deadline) on workloads
// whose subtasks contend for global resources through critical-section
// segments.
type LockingResult struct {
	// HL is the centralized baseline: every global resource's users are
	// co-located on its synchronization processor and the resource becomes
	// local, so plain ceiling emulation (Highest Locker) plus Algorithm
	// SA/DS suffices — the "centralize the sharers" design the distributed
	// protocols compete against.
	HL *Grid
	// MPCP and DPCP are the distributed alternatives: tasks keep their
	// placements and the locking analyses charge the remote blocking.
	MPCP *Grid
	// DPCP mirrors MPCP under the Distributed Priority-Ceiling Protocol.
	DPCP *Grid
	// Protocols selects which columns the study ran and the table shows
	// (subset of DefaultLockingProtocols, in display order).
	Protocols []string
}

// NewLockingResult returns an empty locking view over the given protocol
// selection (nil or empty means all of DefaultLockingProtocols).
func NewLockingResult(protocols []string) *LockingResult {
	if len(protocols) == 0 {
		protocols = DefaultLockingProtocols()
	}
	return &LockingResult{
		HL:        NewGrid("HL schedulable"),
		MPCP:      NewGrid("MPCP schedulable"),
		DPCP:      NewGrid("DPCP schedulable"),
		Protocols: protocols,
	}
}

// lockingConfig installs the study's resource knobs on a grid
// configuration: two global resources, 30% of subtasks carrying one
// section of up to half their execution.
func lockingConfig(c workload.Config) workload.Config {
	c.GlobalResources = 2
	c.GlobalShare = 0.3
	c.CSLenFrac = 0.5
	return c
}

// LockingStudy sweeps the (N, U) grid comparing the three synchronization
// designs on identical workloads.
func LockingStudy(p Params) (*LockingResult, error) {
	res := NewLockingResult(nil)
	if err := runLocking(p, res.Protocols, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runLocking runs the selected protocols over the grid. For each generated
// system it runs AnalyzeMPCP and AnalyzeDPCP as-is, then rewrites the
// system into its centralized twin — users of each global resource migrate
// to the resource's synchronization processor, the resource's scope flips
// to local — and runs Algorithm SA/DS on that. The rewrite is in place (the
// generator rebuilds every field on the next unit), so the sweep keeps the
// zero-allocation steady state.
func runLocking(p Params, protocols []string, res *LockingResult) error {
	p = p.withDefaults()
	if len(protocols) == 0 {
		protocols = DefaultLockingProtocols()
	}
	var wantHL, wantMPCP, wantDPCP bool
	for _, name := range protocols {
		switch name {
		case "hl":
			wantHL = true
		case "mpcp":
			wantMPCP = true
		case "dpcp":
			wantDPCP = true
		default:
			return fmt.Errorf("locking study: unknown protocol %q (valid: hl, mpcp, dpcp)", name)
		}
	}
	cfgs := make([]workload.Config, len(p.Configs))
	for i, c := range p.Configs {
		cfgs[i] = lockingConfig(c)
	}
	p.Configs = cfgs
	err := sweep(p, "locking", res, func(w *worker, cfg workload.Config) error {
		sys, err := w.gen.Generate(cfg)
		if err != nil {
			return err
		}
		w.lap(phaseGenerate)
		if err := w.an.Reset(sys, p.Analysis); err != nil {
			return err
		}
		mpcpOK, dpcpOK, hlOK := 0.0, 0.0, 0.0
		if wantMPCP && w.an.AnalyzeMPCP().AllSchedulable(sys) {
			mpcpOK = 1
		}
		if wantDPCP && w.an.AnalyzeDPCP().AllSchedulable(sys) {
			dpcpOK = 1
		}
		if wantHL {
			centralizeSharers(sys)
			if err := w.an.Reset(sys, p.Analysis); err != nil {
				return err
			}
			if w.an.AnalyzeDS().AllSchedulable(sys) {
				hlOK = 1
			}
		}
		w.lap(phaseAnalyze)
		w.noteSchedulable(mpcpOK == 1 || dpcpOK == 1 || hlOK == 1)
		if wantHL {
			w.rec.AddVerdict("hl", hlOK == 1)
			w.rec.AddObs("hl", hlOK)
		}
		if wantMPCP {
			w.rec.AddVerdict("mpcp", mpcpOK == 1)
			w.rec.AddObs("mpcp", mpcpOK)
		}
		if wantDPCP {
			w.rec.AddVerdict("dpcp", dpcpOK == 1)
			w.rec.AddObs("dpcp", dpcpOK)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("locking study: %w", err)
	}
	return nil
}

// Apply folds one committed record into the per-protocol grids. Records
// carry observations only for the protocols that ran, so the selection
// needs no re-filtering here.
func (r *LockingResult) Apply(rec *record.CellRecord) error {
	cell := CellKey{N: rec.N, U: rec.UPct}
	for i := range rec.Obs {
		switch rec.Obs[i].Series {
		case "hl":
			r.HL.Sample(cell).Add(rec.Obs[i].Value)
		case "mpcp":
			r.MPCP.Sample(cell).Add(rec.Obs[i].Value)
		case "dpcp":
			r.DPCP.Sample(cell).Add(rec.Obs[i].Value)
		}
	}
	return nil
}

// centralizeSharers rewrites a global-resource system into its centralized
// twin in place: every subtask with a section on a global resource moves to
// that resource's synchronization processor, then every global resource
// becomes local (all its users now share its processor, so ceiling
// emulation arbitrates it). Priorities are untouched — Proportional
// Deadline assigns by period, not placement.
func centralizeSharers(s *model.System) {
	for i := range s.Tasks {
		for j := range s.Tasks[i].Subtasks {
			st := &s.Tasks[i].Subtasks[j]
			for _, g := range st.Segments {
				if s.Resources[g.Resource].Global() {
					st.Proc = s.Resources[g.Resource].SyncProc
					break
				}
			}
		}
	}
	for r := range s.Resources {
		if s.Resources[r].Global() {
			s.Resources[r].Scope = model.ScopeLocal
		}
	}
}

// Table renders the selected schedulable-fraction grids side by side.
func (r *LockingResult) Table() *report.Table {
	protos := r.Protocols
	if len(protos) == 0 {
		protos = DefaultLockingProtocols()
	}
	header := []string{"config"}
	var grids []*Grid
	for _, name := range protos {
		switch name {
		case "hl":
			header = append(header, "HL (centralized)")
			grids = append(grids, r.HL)
		case "mpcp":
			header = append(header, "MPCP")
			grids = append(grids, r.MPCP)
		case "dpcp":
			header = append(header, "DPCP")
			grids = append(grids, r.DPCP)
		}
	}
	t := report.NewTable("Synchronization protocols — fraction of systems fully schedulable (global critical sections)",
		header...)
	if len(grids) == 0 {
		return t
	}
	for _, k := range grids[0].Keys() {
		row := []string{k.String()}
		for _, g := range grids {
			if s, ok := g.Cells[k]; ok {
				row = append(row, fmt.Sprintf("%.2f", s.Mean()))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}
