package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rtsync/internal/obs"
	"rtsync/internal/record"
	"rtsync/internal/workload"
)

// TestSweepPipelineTraceDeterminism pins the tentpole's no-perturbation
// guarantee for span tracing: attaching a PipelineTracer (with a live
// counter sampler) leaves the study results AND the JSONL record store
// byte-identical at every Parallelism, because span hooks write only
// worker-private arenas, never the committed results. The traced runs must
// also actually produce a trace: per-unit spans covering the whole sweep
// and a Perfetto export that parses.
func TestSweepPipelineTraceDeterminism(t *testing.T) {
	base := benchSweepParams()
	base.SystemsPerConfig = 4
	units := int64(len(base.Configs) * base.SystemsPerConfig)
	variants := []struct {
		par   int
		trace bool
	}{
		{1, false}, // plain sequential reference
		{1, true},
		{4, true},
		{runtime.GOMAXPROCS(0), true},
	}

	var results []*AvgEERResult
	var stores [][]byte
	for _, v := range variants {
		var buf bytes.Buffer
		wr := record.NewWriter(&buf)
		p := base
		p.Parallelism = v.par
		p.Records = wr
		var tracer *obs.PipelineTracer
		var stop func()
		if v.trace {
			tracer = obs.NewPipelineTracer()
			p.Trace = tracer
			p.Progress = obs.NewSweepProgress()
			stop = tracer.StartSampler(p.Progress, time.Millisecond)
		}
		res, err := AvgEERStudy(p)
		if err != nil {
			t.Fatalf("AvgEERStudy(par=%d trace=%v): %v", v.par, v.trace, err)
		}
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		stores = append(stores, buf.Bytes())

		if !v.trace {
			continue
		}
		stop()
		sum := tracer.Summary()
		if sum.Spans == 0 {
			t.Fatalf("par=%d: tracer recorded no spans", v.par)
		}
		byPhase := map[string]obs.SpanPhaseSummary{}
		for _, ph := range sum.Phases {
			byPhase[ph.Phase] = ph
		}
		// One unit span per swept system, with one
		// generate/analyze/simulate/commit child each.
		for _, name := range []string{"unit", "generate", "analyze", "commit", "turnstile-wait"} {
			if got := byPhase[name].Count; got != units {
				t.Errorf("par=%d: %d %q spans, want %d", v.par, got, name, units)
			}
		}
		// Only PM-schedulable units reach simulation; the avg-EER study
		// then runs 4 protocols per simulated unit.
		simulated := byPhase["simulate"].Count
		if simulated == 0 || simulated > units {
			t.Errorf("par=%d: %d simulate spans, want 1..%d", v.par, simulated, units)
		}
		if got := byPhase["run"].Count; got != 4*simulated {
			t.Errorf("par=%d: %d run spans, want %d", v.par, got, 4*simulated)
		}
		if byPhase["worker"].Count != int64(v.par) {
			t.Errorf("par=%d: %d worker spans, want %d", v.par, byPhase["worker"].Count, v.par)
		}
		var out bytes.Buffer
		if err := tracer.WritePerfetto(&out); err != nil {
			t.Fatalf("WritePerfetto: %v", err)
		}
		if !json.Valid(out.Bytes()) {
			t.Fatalf("par=%d: Perfetto export is not valid JSON", v.par)
		}
	}

	for i := 1; i < len(variants); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("results at par=%d trace=%v differ from plain sequential",
				variants[i].par, variants[i].trace)
		}
		if !bytes.Equal(stores[0], stores[i]) {
			t.Errorf("JSONL store at par=%d trace=%v differs from plain sequential",
				variants[i].par, variants[i].trace)
		}
	}
}

// TestSpanDisabledZeroAllocs pins the tracing-off contract at the hook
// level: with a nil span arena, the per-unit hook sequence — beginUnit, the
// three phase laps, and the deposit into the commit window — allocates
// nothing, so a plain sweep keeps its zero-allocs-per-system steady state
// (which TestSweepSteadyStateZeroAllocs pins end to end).
func TestSpanDisabledZeroAllocs(t *testing.T) {
	var w worker
	cfg := workload.DefaultConfig(3, 0.5)
	win := newCommitWindow(1, NewFailureRateResult(), nil)
	unitNo := int64(0)
	cycle := func() {
		w.beginUnit("trace-test", cfg, unitNo)
		w.lap(phaseGenerate)
		w.lap(phaseAnalyze)
		w.lap(phaseSimulate)
		w.deposit(win, nil)
		unitNo++
	}
	cycle() // warm the retained record's string fields
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("tracing-off unit hooks allocate %.2f times per unit, want 0", avg)
	}
	if win.next != unitNo || win.err != nil {
		t.Fatalf("window committed %d of %d units (err %v)", win.next, unitNo, win.err)
	}
}
