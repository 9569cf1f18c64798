package experiments

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"rtsync/internal/model"
	"rtsync/internal/obs"
	"rtsync/internal/record"
	"rtsync/internal/sim"
	"rtsync/internal/workload"
)

// benchSweepParams is a small fixed grid for the end-to-end pipeline
// benchmark: 2 configurations x 8 systems = 16 sweep units per iteration,
// each unit covering generate -> analyze -> simulate (DS, PM, RG, RG1) ->
// aggregate. Parallelism 1 keeps the numbers comparable across machines.
func benchSweepParams() Params {
	return Params{
		Configs: []workload.Config{
			workload.DefaultConfig(3, 0.5),
			workload.DefaultConfig(5, 0.7),
		},
		SystemsPerConfig: 8,
		Seed:             1,
		HorizonPeriods:   5,
		Parallelism:      1,
	}
}

// TestSweepDeterminism checks the ordered commit window: for a fixed
// Params.Seed, figure-runner output is bit-identical (reflect.DeepEqual
// over the float accumulators, not approximate) across Parallelism
// settings, including the fully sequential run.
func TestSweepDeterminism(t *testing.T) {
	base := benchSweepParams()
	base.SystemsPerConfig = 6
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}

	var sims []*AvgEERResult
	var figs []*BoundRatioResult
	var locks []*LockingResult
	for _, par := range parallelisms {
		p := base
		p.Parallelism = par
		res, err := AvgEERStudy(p)
		if err != nil {
			t.Fatalf("AvgEERStudy(parallelism=%d): %v", par, err)
		}
		sims = append(sims, res)
		fig, err := Fig13BoundRatio(p)
		if err != nil {
			t.Fatalf("Fig13BoundRatio(parallelism=%d): %v", par, err)
		}
		figs = append(figs, fig)
		lock, err := LockingStudy(p)
		if err != nil {
			t.Fatalf("LockingStudy(parallelism=%d): %v", par, err)
		}
		locks = append(locks, lock)
	}
	for i := 1; i < len(parallelisms); i++ {
		if !reflect.DeepEqual(sims[0], sims[i]) {
			t.Errorf("AvgEERStudy output at parallelism %d differs from sequential", parallelisms[i])
		}
		if !reflect.DeepEqual(figs[0], figs[i]) {
			t.Errorf("Fig13BoundRatio output at parallelism %d differs from sequential", parallelisms[i])
		}
		if !reflect.DeepEqual(locks[0], locks[i]) {
			t.Errorf("LockingStudy output at parallelism %d differs from sequential", parallelisms[i])
		}
	}
}

// TestSweepJSONLDeterminism checks the result store end of the window:
// the JSONL byte stream a sweep writes is identical at any Parallelism, and
// replaying it through a fresh view reproduces the live result bit-for-bit.
func TestSweepJSONLDeterminism(t *testing.T) {
	base := benchSweepParams()
	base.SystemsPerConfig = 4
	parallelisms := []int{1, 4, runtime.GOMAXPROCS(0)}

	var stores [][]byte
	var views []*AvgEERResult
	for _, par := range parallelisms {
		var buf bytes.Buffer
		wr := record.NewWriter(&buf)
		p := base
		p.Parallelism = par
		p.Records = wr
		res, err := AvgEERStudy(p)
		if err != nil {
			t.Fatalf("AvgEERStudy(parallelism=%d): %v", par, err)
		}
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := int64(len(base.Configs) * base.SystemsPerConfig); wr.Count() != want {
			t.Fatalf("parallelism %d wrote %d records, want %d", par, wr.Count(), want)
		}
		stores = append(stores, buf.Bytes())
		views = append(views, res)
	}
	for i := 1; i < len(parallelisms); i++ {
		if !bytes.Equal(stores[0], stores[i]) {
			t.Errorf("JSONL store at parallelism %d differs from sequential", parallelisms[i])
		}
	}

	replay := NewAvgEERResult()
	rd := record.NewReader(bytes.NewReader(stores[0]))
	rd.Verify = true
	var rec record.CellRecord
	for {
		ok, err := rd.Next(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := replay.Apply(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(views[0], replay) {
		t.Error("replayed view differs from live sweep result")
	}
}

// TestSweepSteadyStateZeroAllocs proves the tentpole: a warm worker's
// per-system loop — generate, analyze, fill bounds, simulate two
// protocols, snapshot metrics — allocates nothing per additional system,
// with observability both disabled and enabled (the obs counter bank is
// preallocated atomics, so routing every run through it adds no
// allocations).
func TestSweepSteadyStateZeroAllocs(t *testing.T) {
	t.Run("stats-off", func(t *testing.T) { testSweepZeroAllocs(t, nil, false) })
	t.Run("stats-on", func(t *testing.T) { testSweepZeroAllocs(t, obs.NewSimStats(), false) })
	// With the record path active but no sink attached (the default for
	// plain figure runs), filling the retained record and committing it
	// through the commit window — including a deep copy into a slot —
	// must stay allocation-free too.
	t.Run("record-fill", func(t *testing.T) { testSweepZeroAllocs(t, nil, true) })
}

func testSweepZeroAllocs(t *testing.T, st *obs.SimStats, records bool) {
	cfg := workload.DefaultConfig(4, 0.6)
	p := Params{}.withDefaults()
	var w worker
	w.sim.Stats = st
	bounds := make(sim.Bounds)
	dsP := sim.NewDS()
	pmP := sim.NewPM(nil)
	var ds, pm sim.Metrics
	win := newCommitWindow(2, NewAvgEERResult(), nil)
	committed := int64(0)

	// Rotate over a fixed seed set so the measured runs retrace warmed
	// capacities instead of growing them.
	seeds := []int64{11, 12, 13, 14, 15}
	iter := 0
	var unitErr error
	unit := func() {
		cfg.Seed = seeds[iter%len(seeds)]
		iter++
		sys, err := w.gen.Generate(cfg)
		if err != nil {
			unitErr = err
			return
		}
		if err := w.an.Reset(sys, p.Analysis); err != nil {
			unitErr = err
			return
		}
		if !fillPMBounds(bounds, w.an.AnalyzePM()) {
			return
		}
		pmP.SetBounds(bounds)
		horizon := model.Time(int64(sys.MaxPeriod()) * 5)
		out, err := w.sim.Run(sys, sim.Config{Protocol: dsP, Horizon: horizon})
		if err != nil {
			unitErr = err
			return
		}
		ds.CopyFrom(out.Metrics)
		out, err = w.sim.Run(sys, sim.Config{Protocol: pmP, Horizon: horizon})
		if err != nil {
			unitErr = err
			return
		}
		pm.CopyFrom(out.Metrics)
		if records {
			// The live record path minus the sink: refill the worker's
			// retained record with the study's real helpers and commit it
			// through the window twice — first as the unit after the
			// frontier, which parks a deep copy in its slot, then as the
			// frontier, which is applied in place and drains the slot.
			w.rec.Reset("avgeer", cfg)
			w.rec.AddVerdict("pm", true)
			for i := range sys.Tasks {
				addRatioObs(&w.rec, "pm_ds", &pm, &ds, i)
				addJitterObs(&w.rec, "jit_pm", &pm, i, float64(sys.Tasks[i].Period))
				addEERObs(&w.rec, "eer_ds", &ds, i)
			}
			win.deposit(committed+1, &w.rec, nil, nil)
			win.deposit(committed, &w.rec, nil, nil)
			committed += 2
			if win.err != nil || win.next != committed {
				unitErr = fmt.Errorf("window committed %d of %d units (err %v)", win.next, committed, win.err)
			}
		}
	}
	for i := 0; i < 2*len(seeds); i++ {
		unit()
	}
	if unitErr != nil {
		t.Fatalf("warm-up unit failed: %v", unitErr)
	}
	if avg := testing.AllocsPerRun(2*len(seeds), unit); avg != 0 {
		t.Fatalf("warm sweep unit allocates %.1f times per system, want 0", avg)
	}
	if unitErr != nil {
		t.Fatalf("measured unit failed: %v", unitErr)
	}
	if st != nil && st.Runs() == 0 {
		t.Fatal("stats attached but no runs counted")
	}
}

// BenchmarkSweep measures the whole experiments pipeline per sweep; divide
// B/op and allocs/op by 16 for the per-swept-system cost tracked in
// BENCH_experiments.json.
func BenchmarkSweep(b *testing.B) {
	p := benchSweepParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AvgEERStudy(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepJSONL is BenchmarkSweep with the JSONL result store
// attached (sink: io.Discard); the delta against BenchmarkSweep is the full
// record-store overhead — encode, content hash, window-serialized write —
// for 16 swept systems.
func BenchmarkSweepJSONL(b *testing.B) {
	p := benchSweepParams()
	p.Records = record.NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AvgEERStudy(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallelScaling measures worker-pool parallelism over a
// grid big enough to keep every worker fed. Sub-benchmark names use "max"
// rather than the numeric processor count so trajectories compare across
// machines; GOMAXPROCS is pinned per sub-benchmark and restored after.
func BenchmarkSweepParallelScaling(b *testing.B) {
	gomax := []struct {
		name string
		n    int
	}{
		{"gomaxprocs=1", 1},
		{"gomaxprocs=2", 2},
		{"gomaxprocs=max", runtime.GOMAXPROCS(0)},
	}
	for _, gm := range gomax {
		b.Run(gm.name, func(b *testing.B) {
			prev := runtime.GOMAXPROCS(gm.n)
			defer runtime.GOMAXPROCS(prev)
			p := benchSweepParams()
			p.SystemsPerConfig = 16 // 32 units
			p.Parallelism = gm.n
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := AvgEERStudy(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepAnalysisScaling is BenchmarkSweepParallelScaling for an
// analysis-bound study: the locking study (MPCP, DPCP and centralized HL
// per system) over N in {2, 3} x U 0.5-0.9 at 8 systems per cell, 80 units.
// Its per-unit costs are heavy-tailed, so a slow unit delays the commits of
// every later one; the gap between gomaxprocs=1 and 2 shows how much of
// that the commit window absorbs.
func BenchmarkSweepAnalysisScaling(b *testing.B) {
	var configs []workload.Config
	for _, n := range []int{2, 3} {
		for _, u := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
			configs = append(configs, workload.DefaultConfig(n, u))
		}
	}
	gomax := []struct {
		name string
		n    int
	}{
		{"gomaxprocs=1", 1},
		{"gomaxprocs=2", 2},
		{"gomaxprocs=max", runtime.GOMAXPROCS(0)},
	}
	for _, gm := range gomax {
		b.Run(gm.name, func(b *testing.B) {
			prev := runtime.GOMAXPROCS(gm.n)
			defer runtime.GOMAXPROCS(prev)
			p := Params{Configs: configs, SystemsPerConfig: 8, Seed: 1, Parallelism: gm.n}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := LockingStudy(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
