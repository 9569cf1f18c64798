// Package admission implements the rtsyncd admission-control core: a
// Workspace holding one committed distributed system plus the incremental
// machinery — content-hash result cache, per-algorithm previous bounds,
// dirty-processor tracking — to answer "is this task-set change
// schedulable?" without re-analyzing the whole system, and a Service
// exposing it over JSON HTTP (service.go).
//
// Every answer takes the cheapest exact path available:
//
//  1. cache — the changed system's content digest already has a memoized
//     Result (e.g. an earlier probe of the same delta, or an undo);
//  2. incremental — for the SA/PM and SA/DS analyses, a task-level delta
//     against the committed system re-solves only the dirty processors'
//     dependency closure, seeded from the committed bounds
//     (analysis.AnalyzeDSFrom / AnalyzePMFrom);
//  3. full — everything else: first contact, locking/holistic analyses.
//
// All three produce bit-identical verdicts; the obs.AnalysisStats counters
// (cache hits/misses, dirty-processor recomputes) record which path served
// each request.
package admission

import (
	"fmt"
	"sync"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/obs"
)

// Algorithm names accepted in configs and requests, matching rtanalyze's
// -algo values.
const (
	AlgoSAPM     = "sapm"
	AlgoSADS     = "sads"
	AlgoHolistic = "holistic"
	AlgoMPCP     = "mpcp"
	AlgoDPCP     = "dpcp"
)

// protocolName maps an algo key to the Result.Protocol label used in cache
// digests and verdicts.
func protocolName(algo string) (string, error) {
	switch algo {
	case AlgoSAPM:
		return "SA/PM", nil
	case AlgoSADS:
		return "SA/DS", nil
	case AlgoHolistic:
		return "Holistic", nil
	case AlgoMPCP:
		return "MPCP", nil
	case AlgoDPCP:
		return "DPCP", nil
	}
	return "", fmt.Errorf("unknown algorithm %q (want sapm, sads, holistic, mpcp or dpcp)", algo)
}

// Config tunes a Workspace.
type Config struct {
	// Algo is the default analysis answering deltas that name none.
	// Defaults to sads.
	Algo string
	// Options are the analysis options; zero value means
	// analysis.DefaultOptions() with WarmStart on (the service reuses one
	// Analyzer, which is exactly the warm-start sweet spot).
	Options analysis.Options
	// CacheSize bounds the memoized results (default 256 entries).
	CacheSize int
	// Stats receives cache and incremental counters; optional.
	Stats *obs.AnalysisStats
}

// Delta is one proposed task-set change against the committed system.
// Tasks are keyed by name: Remove and Modify name existing tasks, Add
// introduces new ones. Processors and resources are fixed for the
// workspace's lifetime. An empty delta re-evaluates the committed system.
type Delta struct {
	Add    []model.Task `json:"add,omitempty"`
	Modify []model.Task `json:"modify,omitempty"`
	Remove []string     `json:"remove,omitempty"`
	// Algo optionally overrides the workspace default for this request.
	Algo string `json:"algo,omitempty"`
	// Commit adopts the changed task set — but only when every task is
	// schedulable (admission control); an unschedulable delta is never
	// committed unless Force is also set.
	Commit bool `json:"commit,omitempty"`
	// Force commits even an unschedulable change: removals and capacity
	// planning must be able to shrink or degrade the committed set.
	Force bool `json:"force,omitempty"`
}

// TaskVerdict is one task's slice of a Verdict.
type TaskVerdict struct {
	Name        string `json:"name"`
	EER         string `json:"eer"` // bound in ticks, or "inf"
	Deadline    string `json:"deadline"`
	Schedulable bool   `json:"schedulable"`
}

// Verdict answers one Delta or Analyze call.
type Verdict struct {
	Algo        string        `json:"algo"` // protocol label, e.g. "SA/DS"
	Path        string        `json:"path"` // "cache", "incremental" or "full"
	Schedulable bool          `json:"schedulable"`
	Committed   bool          `json:"committed"`
	Iterations  int           `json:"iterations"`
	Tasks       []TaskVerdict `json:"tasks"`
}

// Workspace is the admission-control state machine: the committed system,
// one reused Analyzer, the result cache, and the committed bounds each
// incremental re-analysis seeds from. Safe for concurrent use; every
// operation holds the workspace lock (analysis is CPU-bound and the
// Analyzer's scratch state is single-threaded by design).
type Workspace struct {
	mu     sync.Mutex
	cfg    Config
	sys    *model.System
	gen    int // bumped per commit; guards last-bounds freshness
	an     *analysis.Analyzer
	hasher analysis.SystemHasher
	cache  *analysis.ResultCache
	dirty  []bool
	// last holds, per algo, the bounds of the committed system keyed by
	// task name — the remap AnalyzeDSFrom/AnalyzePMFrom seed from after
	// task indices shift.
	last map[string]*lastBounds
}

type lastBounds struct {
	gen    int
	byTask map[string][]analysis.SubtaskBound
}

// NewWorkspace validates sys, primes the workspace with a full analysis
// under the default algorithm (so the very first delta already runs
// incrementally), and returns it ready to serve.
func NewWorkspace(sys *model.System, cfg Config) (*Workspace, error) {
	if cfg.Algo == "" {
		cfg.Algo = AlgoSADS
	}
	if _, err := protocolName(cfg.Algo); err != nil {
		return nil, err
	}
	if cfg.Options == (analysis.Options{}) {
		cfg.Options = analysis.DefaultOptions()
		cfg.Options.WarmStart = true
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	an, err := analysis.NewAnalyzer(sys, cfg.Options)
	if err != nil {
		return nil, err
	}
	an.Stats = cfg.Stats
	cache := analysis.NewResultCache(cfg.CacheSize)
	cache.Stats = cfg.Stats
	w := &Workspace{
		cfg:   cfg,
		sys:   sys.Clone(),
		an:    an,
		cache: cache,
		dirty: make([]bool, len(sys.Procs)),
		last:  make(map[string]*lastBounds),
	}
	if _, err := w.Analyze(""); err != nil {
		return nil, fmt.Errorf("prime analysis: %w", err)
	}
	return w, nil
}

// System returns a deep copy of the committed system.
func (w *Workspace) System() *model.System {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sys.Clone()
}

// Analyze evaluates the committed system under algo (default: the
// workspace algo) and refreshes the incremental seed bounds.
func (w *Workspace) Analyze(algo string) (*Verdict, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if algo == "" {
		algo = w.cfg.Algo
	}
	proto, err := protocolName(algo)
	if err != nil {
		return nil, err
	}
	res, path, err := w.evaluate(w.sys, algo, proto, false)
	if err != nil {
		return nil, err
	}
	w.rememberBounds(algo, w.sys, res)
	return w.verdict(w.sys, res, path), nil
}

// ApplyDelta evaluates d against the committed system; when d.Commit is
// set and the verdict is schedulable, the change is adopted and later
// deltas build on it.
func (w *Workspace) ApplyDelta(d Delta) (*Verdict, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	algo := d.Algo
	if algo == "" {
		algo = w.cfg.Algo
	}
	proto, err := protocolName(algo)
	if err != nil {
		return nil, err
	}
	next, err := w.applyTasks(d)
	if err != nil {
		return nil, err
	}
	res, path, err := w.evaluate(next, algo, proto, true)
	if err != nil {
		return nil, err
	}
	v := w.verdict(next, res, path)
	if d.Commit && (v.Schedulable || d.Force) {
		w.rememberBounds(algo, next, res)
		w.sys = next
		w.gen++
		for _, lb := range w.last {
			lb.gen = -1 // other algos' bounds are for the old system
		}
		w.last[algo].gen = w.gen
		v.Committed = true
	}
	return v, nil
}

// applyTasks builds the changed system and records the touched processors
// in w.dirty: every processor hosting a subtask of a removed, modified
// (old or new shape) or added task. Removed tasks and old shapes come from
// the committed system, which is valid; the new shapes are marked only
// after the changed system validates, since a delta may name processors
// the system does not have. A task modified twice keeps only its last new
// shape, so its old shape is the one marked on its first modification.
func (w *Workspace) applyTasks(d Delta) (*model.System, error) {
	for i := range w.dirty {
		w.dirty[i] = false
	}
	next := w.sys.Clone()
	index := func() map[string]int {
		m := make(map[string]int, len(next.Tasks))
		for i := range next.Tasks {
			m[next.Tasks[i].Name] = i
		}
		return m
	}

	byName := index()
	for _, name := range d.Remove {
		i, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("remove %q: no such task", name)
		}
		analysis.DirtyProcs(w.dirty, next, i)
		next.Tasks = append(next.Tasks[:i], next.Tasks[i+1:]...)
		byName = index()
	}
	modified := make(map[string]bool, len(d.Modify))
	for _, t := range d.Modify {
		i, ok := byName[t.Name]
		if !ok {
			return nil, fmt.Errorf("modify %q: no such task", t.Name)
		}
		if !modified[t.Name] {
			modified[t.Name] = true
			analysis.DirtyProcs(w.dirty, next, i)
		}
		next.Tasks[i] = t
	}
	for _, t := range d.Add {
		if _, ok := byName[t.Name]; ok {
			return nil, fmt.Errorf("add %q: task already exists", t.Name)
		}
		if t.Name == "" {
			return nil, fmt.Errorf("add: task needs a name")
		}
		next.Tasks = append(next.Tasks, t)
		byName[t.Name] = len(next.Tasks) - 1
	}
	if err := next.Validate(); err != nil {
		return nil, err
	}
	for _, t := range d.Modify {
		analysis.DirtyProcs(w.dirty, next, byName[t.Name])
	}
	for i := len(next.Tasks) - len(d.Add); i < len(next.Tasks); i++ {
		analysis.DirtyProcs(w.dirty, next, i)
	}
	return next, nil
}

// evaluate answers (result, path) for sys under algo, going through the
// cache, then — when isDelta and the committed bounds are fresh — the
// incremental path, else a full analysis. The result is memoized either
// way.
func (w *Workspace) evaluate(sys *model.System, algo, proto string, isDelta bool) (*analysis.Result, string, error) {
	digest := w.hasher.Hash(sys, proto, w.cfg.Options)
	if res := w.cache.Get(digest); res != nil {
		return res, "cache", nil
	}
	if err := w.an.Reset(sys, w.cfg.Options); err != nil {
		return nil, "", err
	}
	var res *analysis.Result
	path := "full"
	lb := w.last[algo]
	if isDelta && lb != nil && lb.gen == w.gen {
		switch algo {
		case AlgoSADS:
			res = w.an.AnalyzeDSFrom(w.prevResponses(lb, sys), w.dirty)
			path = "incremental"
		case AlgoSAPM:
			res = w.an.AnalyzePMFrom(w.prevBounds(lb, sys), w.dirty)
			path = "incremental"
		}
	}
	if res == nil {
		switch algo {
		case AlgoSAPM:
			res = w.an.AnalyzePM()
		case AlgoSADS:
			res = w.an.AnalyzeDS()
		case AlgoHolistic:
			res = w.an.AnalyzeHolistic()
		case AlgoMPCP:
			res = w.an.AnalyzeMPCP()
		case AlgoDPCP:
			res = w.an.AnalyzeDPCP()
		default:
			return nil, "", fmt.Errorf("unknown algorithm %q", algo)
		}
	}
	// Serve from the cache's deep copy: the Analyzer-owned res dies at the
	// next Reset, the cached copy lives until evicted.
	return w.cache.Put(digest, sys, res), path, nil
}

// rememberBounds snapshots res by task name as the incremental seed for
// algo over sys.
func (w *Workspace) rememberBounds(algo string, sys *model.System, res *analysis.Result) {
	lb := w.last[algo]
	if lb == nil {
		lb = &lastBounds{byTask: make(map[string][]analysis.SubtaskBound)}
		w.last[algo] = lb
	} else {
		clear(lb.byTask)
	}
	lb.gen = w.gen
	for i := range sys.Tasks {
		bounds := make([]analysis.SubtaskBound, len(sys.Tasks[i].Subtasks))
		for j := range bounds {
			bounds[j] = res.Bound(model.SubtaskID{Task: i, Sub: j})
		}
		lb.byTask[sys.Tasks[i].Name] = bounds
	}
}

// prevResponses flattens lb into next's dense order, by task name. Tasks
// new to next get zeros — they are on dirty processors, so the values are
// never read.
func (w *Workspace) prevResponses(lb *lastBounds, next *model.System) []model.Duration {
	out := make([]model.Duration, 0, next.NumSubtasks())
	for i := range next.Tasks {
		prev := lb.byTask[next.Tasks[i].Name]
		for j := range next.Tasks[i].Subtasks {
			if j < len(prev) {
				out = append(out, prev[j].Response)
			} else {
				out = append(out, 0)
			}
		}
	}
	return out
}

// prevBounds is prevResponses for the full SubtaskBound records SA/PM
// reuses.
func (w *Workspace) prevBounds(lb *lastBounds, next *model.System) []analysis.SubtaskBound {
	out := make([]analysis.SubtaskBound, 0, next.NumSubtasks())
	for i := range next.Tasks {
		prev := lb.byTask[next.Tasks[i].Name]
		for j := range next.Tasks[i].Subtasks {
			if j < len(prev) {
				out = append(out, prev[j])
			} else {
				out = append(out, analysis.SubtaskBound{})
			}
		}
	}
	return out
}

// verdict renders res over sys.
func (w *Workspace) verdict(sys *model.System, res *analysis.Result, path string) *Verdict {
	v := &Verdict{
		Algo:        res.Protocol,
		Path:        path,
		Schedulable: true,
		Iterations:  res.Iterations,
		Tasks:       make([]TaskVerdict, len(sys.Tasks)),
	}
	for i := range sys.Tasks {
		ok := res.Schedulable(sys, i)
		if !ok {
			v.Schedulable = false
		}
		v.Tasks[i] = TaskVerdict{
			Name:        sys.Tasks[i].Name,
			EER:         res.TaskEER[i].String(),
			Deadline:    sys.Tasks[i].Deadline.String(),
			Schedulable: ok,
		}
	}
	return v
}
