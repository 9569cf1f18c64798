package analysis_test

import (
	"reflect"
	"testing"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/obs"
)

func TestSystemHasherDeterministic(t *testing.T) {
	var h analysis.SystemHasher
	s := model.Example2()
	opts := analysis.DefaultOptions()
	d1 := h.Hash(s, "SA/DS", opts)
	d2 := h.Hash(s, "SA/DS", opts)
	if d1 != d2 {
		t.Error("same input hashed twice produced different digests")
	}
	if d3 := h.Hash(s.Clone(), "SA/DS", opts); d3 != d1 {
		t.Error("a deep clone hashed differently")
	}
	var h2 analysis.SystemHasher
	if d4 := h2.Hash(s, "SA/DS", opts); d4 != d1 {
		t.Error("a fresh hasher produced a different digest")
	}
}

func TestSystemHasherIgnoresNames(t *testing.T) {
	var h analysis.SystemHasher
	s := model.Example2()
	opts := analysis.DefaultOptions()
	d1 := h.Hash(s, "SA/DS", opts)
	renamed := s.Clone()
	renamed.Tasks[0].Name = "renamed"
	renamed.Procs[0].Name = "other"
	if h.Hash(renamed, "SA/DS", opts) != d1 {
		t.Error("renaming tasks/processors changed the digest")
	}
	// WarmStart is a no-op, so it must not change the digest.
	warm := opts
	warm.WarmStart = true
	if h.Hash(s, "SA/DS", warm) != d1 {
		t.Error("WarmStart changed the digest")
	}
}

func TestSystemHasherSensitivity(t *testing.T) {
	var h analysis.SystemHasher
	base := model.Example2()
	opts := analysis.DefaultOptions()
	d0 := h.Hash(base, "SA/DS", opts)

	mutants := map[string]func(*model.System){
		"exec":     func(s *model.System) { s.Tasks[0].Subtasks[0].Exec++ },
		"period":   func(s *model.System) { s.Tasks[1].Period++ },
		"deadline": func(s *model.System) { s.Tasks[1].Deadline++ },
		"priority": func(s *model.System) { s.Tasks[0].Subtasks[0].Priority++ },
		"proc":     func(s *model.System) { s.Tasks[1].Subtasks[1].Proc = 0 },
		"addproc":  func(s *model.System) { s.Procs = append(s.Procs, model.Processor{Name: "X", Preemptive: true}) },
	}
	for name, mutate := range mutants {
		m := base.Clone()
		mutate(m)
		if h.Hash(m, "SA/DS", opts) == d0 {
			t.Errorf("%s mutation did not change the digest", name)
		}
	}
	if h.Hash(base, "SA/PM", opts) == d0 {
		t.Error("analysis name did not change the digest")
	}
	stricter := opts
	stricter.FailureFactor = 100
	if h.Hash(base, "SA/DS", stricter) == d0 {
		t.Error("FailureFactor did not change the digest")
	}
}

func cachedResult(t *testing.T, s *model.System) *analysis.Result {
	t.Helper()
	res, err := analysis.AnalyzeDS(s, analysis.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultCacheHitIsDeepCopy(t *testing.T) {
	var h analysis.SystemHasher
	st := obs.NewAnalysisStats()
	c := analysis.NewResultCache(4)
	c.Stats = st

	s := model.Example2()
	d := h.Hash(s, "SA/DS", analysis.DefaultOptions())
	if got := c.Get(d); got != nil {
		t.Fatal("empty cache returned a result")
	}
	res := cachedResult(t, s)
	c.Put(d, s, res)

	got := c.Get(d)
	if got == nil {
		t.Fatal("cache missed a just-put digest")
	}
	if got == res {
		t.Error("cache returned the caller's Result pointer, not a copy")
	}
	if !reflect.DeepEqual(got.Bounds, res.Bounds) || !reflect.DeepEqual(got.TaskEER, res.TaskEER) ||
		got.Protocol != res.Protocol || got.Iterations != res.Iterations {
		t.Error("cached result differs from the stored one")
	}
	// The copy has to answer keyed lookups through its own index.
	id := model.SubtaskID{Task: 1, Sub: 1}
	if got.Bound(id) != res.Bound(id) {
		t.Error("cached result's index resolves bounds differently")
	}
	if hits, misses := st.CacheHits(), st.CacheMisses(); hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1 and 1", hits, misses)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	var h analysis.SystemHasher
	st := obs.NewAnalysisStats()
	c := analysis.NewResultCache(2)
	c.Stats = st
	opts := analysis.DefaultOptions()

	systems := []*model.System{model.Example1(), model.Example2(), lockScenario()}
	digests := make([]analysis.SystemDigest, len(systems))
	for i, s := range systems[:2] {
		digests[i] = h.Hash(s, "SA/DS", opts)
		c.Put(digests[i], s, cachedResult(t, s))
	}
	// Touch entry 0 so entry 1 becomes the LRU victim.
	if c.Get(digests[0]) == nil {
		t.Fatal("warm entry 0 missed")
	}
	digests[2] = h.Hash(systems[2], "SA/DS", opts)
	c.Put(digests[2], systems[2], cachedResult(t, systems[2]))

	if c.Get(digests[1]) != nil {
		t.Error("least-recently-used entry survived the eviction")
	}
	if c.Get(digests[0]) == nil || c.Get(digests[2]) == nil {
		t.Error("recently used entries were evicted")
	}
	if ev := st.Snapshot().CacheEvictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
}

// TestResultCacheHitZeroAlloc pins the steady-state lookup cost: hashing a
// system and serving a hit from a warmed cache must not allocate.
func TestResultCacheHitZeroAlloc(t *testing.T) {
	var h analysis.SystemHasher
	c := analysis.NewResultCache(4)
	s := model.Example2()
	opts := analysis.DefaultOptions()
	d := h.Hash(s, "SA/DS", opts)
	c.Put(d, s, cachedResult(t, s))

	allocs := testing.AllocsPerRun(100, func() {
		if c.Get(h.Hash(s, "SA/DS", opts)) == nil {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Errorf("hash+hit allocates %.1f objects per lookup, want 0", allocs)
	}
}

// TestAnalyzeWarmZeroAlloc pins the seeded steady state: a reused Analyzer
// alternating between two systems — the (8, 90%) benchmark shape, whose
// busy periods hold several instances, and Example 2 — must Reset and run
// AnalyzeDS without heap allocation once its seed arena has grown.
func TestAnalyzeWarmZeroAlloc(t *testing.T) {
	big, small := benchSystem(t), model.Example2()
	var a analysis.Analyzer
	run := func() {
		for _, s := range []*model.System{big, small} {
			if err := a.Reset(s, analysis.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			a.AnalyzeDS()
		}
	}
	run() // grow the working arrays and the seed arena
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("seeded Reset+AnalyzeDS allocates %.1f objects per run, want 0", allocs)
	}
}
