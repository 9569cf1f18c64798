package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SweepProgress aggregates live telemetry for one or more experiment
// sweeps: units done against the announced total, per-cell wall time,
// schedulable/unschedulable tallies, and the cell currently being swept.
// Workers write through per-worker SweepShards (no shared cache lines on
// the unit path); the progress reporter and the debug endpoint read the
// atomics directly. One SweepProgress can span several sweeps — rtexperiments
// with -figure all announces each study's sweep as it starts, so done/total
// and the ETA stay meaningful across the whole invocation.
type SweepProgress struct {
	start   time.Time
	total   atomic.Int64
	current atomic.Pointer[string]

	mu   sync.Mutex
	runs []*SweepRun
}

// NewSweepProgress returns an empty progress tracker; elapsed time and
// rates are measured from this call.
func NewSweepProgress() *SweepProgress {
	return &SweepProgress{start: time.Now()}
}

// StartSweep announces a sweep of len(cells)*unitsPerCell units processed
// by up to workers shards and returns the per-sweep handle. cells are the
// grid labels in config order; the returned run retains the slice.
func (sp *SweepProgress) StartSweep(cells []string, unitsPerCell, workers int) *SweepRun {
	r := &SweepRun{cells: cells, shards: make([]*SweepShard, workers)}
	for i := range r.shards {
		r.shards[i] = &SweepShard{
			cellUnits: make([]atomic.Int64, len(cells)),
			cellNanos: make([]atomic.Int64, len(cells)),
		}
	}
	sp.total.Add(int64(len(cells) * unitsPerCell))
	sp.mu.Lock()
	sp.runs = append(sp.runs, r)
	sp.mu.Unlock()
	return r
}

// SetCurrent records the cell label now being swept. Callers pass a pointer
// into the labels slice they handed StartSweep, so the hot path stores one
// pointer and allocates nothing.
func (sp *SweepProgress) SetCurrent(label *string) { sp.current.Store(label) }

// SweepRun is one announced sweep's shard set.
type SweepRun struct {
	cells  []string
	shards []*SweepShard
}

// Shard returns worker i's shard.
func (r *SweepRun) Shard(i int) *SweepShard { return r.shards[i] }

// SweepShard is one worker's private slice of the telemetry: written by
// exactly one goroutine, read concurrently by snapshots. Shards are
// separate heap objects, so workers never contend on a cache line.
type SweepShard struct {
	done      atomic.Int64
	wallNanos atomic.Int64
	sched     atomic.Int64
	unsched   atomic.Int64
	cellUnits []atomic.Int64
	cellNanos []atomic.Int64
}

// UnitDone records one finished unit of the given cell (config index) and
// its wall time.
func (sh *SweepShard) UnitDone(cell int, wall time.Duration) {
	sh.done.Add(1)
	sh.wallNanos.Add(int64(wall))
	if uint(cell) < uint(len(sh.cellUnits)) {
		sh.cellUnits[cell].Add(1)
		sh.cellNanos[cell].Add(int64(wall))
	}
}

// NoteSchedulable tallies one analyzed system as schedulable or not.
func (sh *SweepShard) NoteSchedulable(ok bool) {
	if ok {
		sh.sched.Add(1)
	} else {
		sh.unsched.Add(1)
	}
}

// CellStat is one cell's aggregate in a snapshot.
type CellStat struct {
	Cell    string  `json:"cell"`
	Units   int64   `json:"units"`
	WallSec float64 `json:"wall_sec"`
	// SystemsPerSec is Units/WallSec — the per-cell throughput; cells
	// whose systems simulate longer show it dropping.
	SystemsPerSec float64 `json:"systems_per_sec"`
}

// SweepSnapshot is the JSON-friendly point-in-time view of a SweepProgress.
type SweepSnapshot struct {
	UnitsDone     int64   `json:"units_done"`
	UnitsTotal    int64   `json:"units_total"`
	Schedulable   int64   `json:"schedulable"`
	Unschedulable int64   `json:"unschedulable"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	// SystemsPerSec is the whole-sweep throughput (units per elapsed
	// second, all workers combined).
	SystemsPerSec float64 `json:"systems_per_sec"`
	// ETASec extrapolates the remaining units at the current rate; 0 when
	// done or when no rate is established yet.
	ETASec      float64    `json:"eta_sec"`
	CurrentCell string     `json:"current_cell,omitempty"`
	Cells       []CellStat `json:"cells,omitempty"`
}

// Snapshot aggregates all shards of all announced sweeps. Cells with the
// same label across sweeps merge.
func (sp *SweepProgress) Snapshot() SweepSnapshot {
	s := SweepSnapshot{
		UnitsTotal: sp.total.Load(),
		ElapsedSec: time.Since(sp.start).Seconds(),
	}
	if cur := sp.current.Load(); cur != nil {
		s.CurrentCell = *cur
	}
	sp.mu.Lock()
	runs := sp.runs
	sp.mu.Unlock()
	byCell := make(map[string]int)
	for _, r := range runs {
		for _, sh := range r.shards {
			s.UnitsDone += sh.done.Load()
			s.Schedulable += sh.sched.Load()
			s.Unschedulable += sh.unsched.Load()
			for ci := range r.cells {
				units := sh.cellUnits[ci].Load()
				if units == 0 {
					continue
				}
				i, ok := byCell[r.cells[ci]]
				if !ok {
					i = len(s.Cells)
					byCell[r.cells[ci]] = i
					s.Cells = append(s.Cells, CellStat{Cell: r.cells[ci]})
				}
				s.Cells[i].Units += units
				s.Cells[i].WallSec += float64(sh.cellNanos[ci].Load()) / 1e9
			}
		}
	}
	for i := range s.Cells {
		if s.Cells[i].WallSec > 0 {
			s.Cells[i].SystemsPerSec = float64(s.Cells[i].Units) / s.Cells[i].WallSec
		}
	}
	if s.ElapsedSec > 0 {
		s.SystemsPerSec = float64(s.UnitsDone) / s.ElapsedSec
	}
	if left := s.UnitsTotal - s.UnitsDone; left > 0 && s.SystemsPerSec > 0 {
		s.ETASec = float64(left) / s.SystemsPerSec
	}
	return s
}

// Line renders the snapshot as the reporter's one-line status.
func (s SweepSnapshot) Line() string {
	pct := 0.0
	if s.UnitsTotal > 0 {
		pct = 100 * float64(s.UnitsDone) / float64(s.UnitsTotal)
	}
	line := fmt.Sprintf("[sweep] %d/%d units (%.1f%%) | %.1f systems/s",
		s.UnitsDone, s.UnitsTotal, pct, s.SystemsPerSec)
	if s.CurrentCell != "" {
		line += " | cell " + s.CurrentCell
	}
	if s.ETASec > 0 {
		line += fmt.Sprintf(" | eta %s", (time.Duration(s.ETASec * float64(time.Second))).Round(time.Second))
	}
	return line
}

// StartReporter prints a one-line status to w every interval until the
// returned stop function is called; stop prints one final line. The
// reporter only reads atomics, so it never perturbs sweep workers or the
// deterministic ordered commits.
func (sp *SweepProgress) StartReporter(w io.Writer, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(w, sp.Snapshot().Line())
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
			fmt.Fprintln(w, sp.Snapshot().Line())
		})
	}
}
