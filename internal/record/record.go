// Package record defines the durable unit of the experiments pipeline: one
// versioned CellRecord per swept system, encoded as JSON Lines.
//
// The pipeline inversion (DESIGN.md §4g): studies no longer mutate figure
// state directly. Each swept system produces a CellRecord — the cell's full
// workload parameters and seed, per-protocol verdicts, every scalar
// observation a figure will aggregate, integer tallies, and optional
// per-phase wall timings and engine-counter deltas — and every figure is a
// pure replay of a record stream. The same Apply path serves the live sweep
// (records applied in unit order as they commit through the sweep's commit
// window) and cmd/rtreport (records applied from a JSONL file), which is
// what makes "figure output byte-identical through the store" hold by
// construction.
//
// Encoding is a hand-rolled append-style JSON writer with a fixed field
// order, so output is canonical (the same record always encodes to the same
// bytes, which the per-record content hash and the schema golden test rely
// on) and allocation-free into a retained buffer. Decoding uses
// encoding/json: unknown fields are ignored and records with a NEWER schema
// version than this build still yield their known fields, so old readers
// tolerate future stores.
package record

import "rtsync/internal/workload"

// SchemaVersion is the current CellRecord schema. It is bumped whenever a
// field is added, renamed, or re-typed; the golden fixture test in this
// package fails loudly on any encoding change that forgets the bump.
const SchemaVersion = 1

// Obs is one scalar observation in a named figure series. Param
// distinguishes sub-series sharing one name (the exec-variation study's
// BCET/WCET fraction, the release-jitter study's delay fraction, a task
// index on raw EER series); it is zero for plain series.
type Obs struct {
	Series string  `json:"s"`
	Param  float64 `json:"p,omitempty"`
	Value  float64 `json:"v"`
}

// Tally is one integer bookkeeping increment: system counts, finite-bound
// counts, skip counts — the denominators and footnotes of the figures.
type Tally struct {
	Key string `json:"k"`
	N   int64  `json:"n"`
}

// Verdict is one analysis's schedulability verdict on the system.
type Verdict struct {
	Protocol    string `json:"p"`
	Schedulable bool   `json:"ok"`
}

// Timing is the per-phase wall-clock breakdown of one unit in nanoseconds:
// workload generation, schedulability analysis, and simulation. Volatile by
// nature, so it is emitted only when explicitly requested
// (rtexperiments -record-timings) and never consulted by figure replay —
// byte-deterministic stores keep it off.
type Timing struct {
	GenNS int64 `json:"gen_ns"`
	AnaNS int64 `json:"ana_ns"`
	SimNS int64 `json:"sim_ns"`
}

// SimCounts is the engine-counter delta attributed to one unit's simulation
// runs, snapshotted from a worker-private obs.SimStats. Deterministic in the
// unit (unlike Timing), but off by default to keep stores lean.
type SimCounts struct {
	Events   int64 `json:"events"`
	Preempts int64 `json:"preempts"`
	Switches int64 `json:"switches"`
	Runs     int64 `json:"runs"`
}

// CellRecord is one swept system's complete result: identity (study, grid
// cell, seed, global unit order), the full workload configuration that
// regenerates the system bit-for-bit, and everything the study measured.
//
// The struct is designed for reuse: Reset plus the Add helpers refill
// retained backing arrays, so a warm sweep worker builds records with zero
// allocations per system.
type CellRecord struct {
	// Schema is the encoding version (SchemaVersion at write time).
	Schema int `json:"schema"`
	// Study tags the record stream: "fig12", "avgeer", "locking", ...
	Study string `json:"study"`
	// N and UPct are the paper's grid cell: subtasks per task and
	// per-processor utilization in percent.
	N    int `json:"n"`
	UPct int `json:"u"`
	// Seed is the per-system generation seed (mirrors Config.Seed).
	Seed int64 `json:"seed"`
	// Unit is the global sweep unit order (config-major, then system
	// index) — the order records commit and replay in.
	Unit int64 `json:"unit"`
	// Config is the full workload configuration; regenerating from it
	// reproduces the system bit-for-bit.
	Config workload.Config `json:"cfg"`

	Verdicts []Verdict  `json:"verdicts,omitempty"`
	Obs      []Obs      `json:"obs,omitempty"`
	Tallies  []Tally    `json:"tallies,omitempty"`
	Timing   *Timing    `json:"timing,omitempty"`
	Sim      *SimCounts `json:"sim,omitempty"`

	// Hash is the record's content hash: the first 16 hex characters of
	// the SHA-256 of the record's canonical encoding with Hash itself
	// empty (the same digest family the run manifests use for output
	// files, applied per record).
	Hash string `json:"hash,omitempty"`
}

// Reset refills the record's identity for a new unit and truncates all
// retained slices in place.
func (r *CellRecord) Reset(study string, cfg workload.Config) {
	r.Schema = SchemaVersion
	r.Study = study
	r.N = cfg.SubtasksPerTask
	r.UPct = int(cfg.Utilization*100 + 0.5)
	r.Seed = cfg.Seed
	r.Unit = 0
	r.Config = cfg
	r.Verdicts = r.Verdicts[:0]
	r.Obs = r.Obs[:0]
	r.Tallies = r.Tallies[:0]
	r.Timing = nil
	r.Sim = nil
	r.Hash = ""
}

// AddObs appends one observation to the named series.
func (r *CellRecord) AddObs(series string, v float64) {
	r.Obs = append(r.Obs, Obs{Series: series, Value: v})
}

// AddObsP appends one observation with a sub-series parameter.
func (r *CellRecord) AddObsP(series string, param, v float64) {
	r.Obs = append(r.Obs, Obs{Series: series, Param: param, Value: v})
}

// AddTally appends one integer increment.
func (r *CellRecord) AddTally(key string, n int64) {
	r.Tallies = append(r.Tallies, Tally{Key: key, N: n})
}

// AddVerdict appends one protocol verdict.
func (r *CellRecord) AddVerdict(protocol string, ok bool) {
	r.Verdicts = append(r.Verdicts, Verdict{Protocol: protocol, Schedulable: ok})
}
