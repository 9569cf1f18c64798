package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rtsync/internal/admission"
	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/obs"
	"rtsync/internal/record"
	"rtsync/internal/sim"
	"rtsync/internal/workload"
)

// traced is the per-layer run. It measures each module where the
// end-to-end run cannot see inside, on the same seeded inputs:
//
//  1. the workload's rtexperiments invocations with -trace-pipeline, whose
//     manifests carry the per-phase span summary, and the same invocations
//     untraced (experiments.*, obs.*);
//  2. those invocations' own record stores replayed through
//     workload.Generator, analysis.Analyzer, sim.Runner and record.Writer,
//     timing each call (workload.*, analysis.*, sim.*, record.*);
//  3. the seed's admission scripts replayed through an in-process
//     admission.Workspace and then over HTTP (admission.*).
//
// Every workload reports every layer. The admission workload has no sweep
// of its own, so part 1 sweeps fig13 at its clusters' subtask count and
// utilization on the CLI's default 4-processor, 12-task shape; the sweep
// workloads send no requests, so part 3 replays the admission workload's
// scripts for the same seed.
func (b *bench) traced(res *result) error {
	studies := b.sweepStudies()
	if b.workload == wlAdmission {
		c := clusterConfig()
		studies = []sweepStudy{{study: "fig13", figure: "13", ns: []int{c.SubtasksPerTask}, us: []float64{c.Utilization}, systems: 8 * b.sz.analysisSystems}}
	}
	stores, err := b.traceSweep(res, studies, time.Duration(0.3*b.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	if err := replayLayers(res, stores, time.Duration(0.25*b.seconds*float64(time.Second))); err != nil {
		return err
	}
	in, err := genAdmission(b.seed, b.sz.scriptLen)
	if err != nil {
		return err
	}
	return b.admissionLayers(res, in)
}

// traceSweep runs rounds of the studies through rtexperiments, each round
// once with -trace-pipeline and once without (both with -manifest, so only
// the tracer differs), alternating which goes first, until the traced runs
// fill budget. Tracing must not change a store byte, and round 0 must match
// the pinned digests. It returns the traced rounds' stores.
func (b *bench) traceSweep(res *result, studies []sweepStudy, budget time.Duration) ([][]byte, error) {
	var (
		stores                [][]byte
		tracedWall, plainWall time.Duration
		total                 = map[string]float64{}
		count                 = map[string]int64{}
	)
	for r := 0; r == 0 || tracedWall < budget; r++ {
		for _, s := range studies {
			var traced, plain []byte
			for k := 0; k < 2; k++ {
				if (k == 0) == (r%2 == 0) {
					store, wall, spans, err := b.sweepTraced(s, subSeed(b.seed, r), true)
					if err != nil {
						return nil, err
					}
					traced, tracedWall = store, tracedWall+wall
					for _, ph := range spans.Phases {
						total[ph.Phase] += float64(ph.TotalNS)
						count[ph.Phase] += ph.Count
					}
				} else {
					store, wall, _, err := b.sweepTraced(s, subSeed(b.seed, r), false)
					if err != nil {
						return nil, err
					}
					plain, plainWall = store, plainWall+wall
				}
			}
			stores = append(stores, traced)
			ok := bytes.Equal(traced, plain)
			if want, pinned := b.pinned.lookup(b.workload, b.seed, s.study); ok && pinned && r == 0 {
				ok = want.Store == sha(plain)
			}
			res.check(ok, int64(bytes.Count(plain, []byte{'\n'})),
				"traced sweep round %d %s (seed %d): store differs from the untraced or pinned one", r, s.study, b.seed)
		}
	}

	phase := func(p obs.SpanPhase) float64 { return total[p.String()] }
	busy := phase(obs.SpanGenerate) + phase(obs.SpanAnalyze) + phase(obs.SpanSimulate) + phase(obs.SpanCommit)
	res.set("experiments.turnstile_wait_frac", phase(obs.SpanTurnstileWait)/phase(obs.SpanWorker))
	res.set("experiments.worker_busy_frac", busy/phase(obs.SpanWorker))
	res.set("experiments.analyze_frac", phase(obs.SpanAnalyze)/busy)
	res.set("experiments.commit_us", perCall(phase(obs.SpanCommit), count[obs.SpanCommit.String()])/1e3)
	res.set("obs.trace_overhead_frac", tracedWall.Seconds()/plainWall.Seconds()-1)
	return stores, nil
}

// sweepTraced runs one rtexperiments invocation with a manifest and, when
// traced, -trace-pipeline. It returns the record store, the invocation's
// wall time and the manifest's span summary (empty when untraced).
func (b *bench) sweepTraced(s sweepStudy, seed int64, traced bool) ([]byte, time.Duration, obs.SpanSummary, error) {
	var sum obs.SpanSummary
	store := filepath.Join(b.work, "traced.jsonl")
	manifest := filepath.Join(b.work, "manifest.json")
	pipeline := filepath.Join(b.work, "pipeline.json")
	args := append(s.args(seed), "-jsonl", store, "-manifest", manifest)
	if traced {
		args = append(args, "-trace-pipeline", pipeline)
	}
	p, err := b.runProc(nil, "rtexperiments", args...)
	if err != nil {
		return nil, 0, sum, err
	}
	data, err := os.ReadFile(store)
	if err != nil {
		return nil, 0, sum, err
	}
	var m struct {
		Spans *obs.SpanSummary `json:"spans"`
	}
	raw, err := os.ReadFile(manifest)
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err == nil && traced && m.Spans == nil {
		err = fmt.Errorf("manifest of a traced rtexperiments run has no span summary")
	}
	if err != nil {
		return nil, 0, sum, err
	}
	if m.Spans != nil {
		sum = *m.Spans
	}
	for _, f := range []string{store, manifest, pipeline} {
		os.Remove(f)
	}
	return data, p.wall, sum, nil
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// replayLayers regenerates each stored system from its record's Config and
// times every layer's call on it until budget: generation, analyzer reset,
// all five analyses, a DS and an RG simulation (the sweep's horizon of 20
// longest periods; MPCP arbitration where the system has global
// resources), and re-encoding the record.
func replayLayers(res *result, stores [][]byte, budget time.Duration) error {
	var (
		gen    workload.Generator
		an     *analysis.Analyzer
		runner sim.Runner
		rec    record.CellRecord
		cw     countWriter
		ast    = obs.NewAnalysisStats()
		protos = []sim.Protocol{sim.NewDS(), sim.NewRG()}
		opts   = analysis.DefaultOptions()
		w      = record.NewWriter(&cw)

		units, resets, runs                    int64
		genNS, resetNS, simNS, writeNS, anaSum float64
		anaNS                                  [5]float64
		unitMS                                 []float64
	)
	runner.Stats = obs.NewSimStats()
	start := time.Now()
replay:
	for _, store := range stores {
		rd := record.NewReader(bytes.NewReader(store))
		for units == 0 || time.Since(start) < budget {
			ok, err := rd.Next(&rec)
			if err != nil {
				return err
			}
			if !ok {
				continue replay
			}
			t := time.Now()
			sys, err := gen.Generate(rec.Config)
			if err != nil {
				return err
			}
			genNS += float64(time.Since(t))
			if an == nil {
				if an, err = analysis.NewAnalyzer(sys, opts); err != nil {
					return err
				}
				an.Stats = ast
			} else {
				t = time.Now()
				if err := an.Reset(sys, opts); err != nil {
					return err
				}
				resetNS += float64(time.Since(t))
				resets++
			}
			var unit float64
			for k, analyze := range []func() *analysis.Result{an.AnalyzeDS, an.AnalyzePM, an.AnalyzeHolistic, an.AnalyzeMPCP, an.AnalyzeDPCP} {
				t = time.Now()
				analyze()
				d := float64(time.Since(t))
				anaNS[k] += d
				unit += d
			}
			anaSum += unit
			unitMS = append(unitMS, unit/1e6)
			cfg := sim.Config{Horizon: model.Time(int64(sys.MaxPeriod()) * 20)}
			if sys.HasGlobalResources() {
				cfg.Locking = sim.LockingMPCP
			}
			for _, p := range protos {
				cfg.Protocol = p
				t = time.Now()
				if _, err := runner.Run(sys, cfg); err != nil {
					return fmt.Errorf("replay unit %d (%s): %w", rec.Unit, rec.Study, err)
				}
				simNS += float64(time.Since(t))
				runs++
			}
			t = time.Now()
			if err := w.Write(&rec); err != nil {
				return err
			}
			writeNS += float64(time.Since(t))
			units++
		}
		break
	}
	if err := w.Flush(); err != nil {
		return err
	}
	iters := float64(ast.FixpointIterTotal())
	events := float64(runner.Stats.Snapshot().EventsTotal)
	res.set("workload.generate_us", perCall(genNS, units)/1e3)
	res.set("analysis.reset_us", perCall(resetNS, resets)/1e3)
	for k, name := range []string{"ds", "pm", "holistic", "mpcp", "dpcp"} {
		res.set("analysis."+name+"_ms", perCall(anaNS[k], units)/1e6)
	}
	res.set("analysis.unit_p99_ms", quantile(unitMS, 0.99))
	res.set("analysis.iters_per_solve", iters/float64(ast.FixpointSolves()))
	res.set("analysis.ns_per_iter", anaSum/iters)
	res.set("sim.run_ms", perCall(simNS, runs)/1e6)
	res.set("sim.events_per_run", events/float64(runs))
	res.set("sim.ns_per_event", simNS/events)
	res.set("record.write_us", perCall(writeNS, units)/1e3)
	res.set("record.bytes_per_unit", float64(cw.n)/float64(units))
	return nil
}

// admissionLayers replays both clients' scripts, interleaved request by
// request, through an in-process Workspace configured as rtsyncd configures
// its own, timing ApplyDelta by answer path; then replays the same
// sequence over HTTP against a fresh rtsyncd on one connection. Both
// replays are sequential, so they take the same paths.
func (b *bench) admissionLayers(res *result, in *admissionInputs) error {
	var seq []request
	for i := 0; i < b.sz.replayRequests; i++ {
		for _, s := range in.scripts {
			seq = append(seq, s[i%len(s)])
		}
	}

	st := obs.NewAnalysisStats()
	opts := analysis.DefaultOptions()
	opts.WarmStart = true
	ws, err := admission.NewWorkspace(in.sys, admission.Config{Algo: admission.AlgoSADS, Options: opts, Stats: st})
	if err != nil {
		return err
	}
	byPath := map[string][]float64{}
	var commitUS, allUS []float64
	for _, r := range seq {
		var d admission.Delta
		if err := json.Unmarshal(r.body, &d); err != nil {
			return err
		}
		t := time.Now()
		v, err := ws.ApplyDelta(d)
		us := float64(time.Since(t)) / 1e3
		if err == nil {
			err = r.verify(v)
		}
		res.check(err == nil, 1, "in-process admission replay (seed %d): %v", b.seed, err)
		if err != nil {
			continue
		}
		allUS = append(allUS, us)
		if r.commit {
			commitUS = append(commitUS, us)
		} else {
			byPath[v.Path] = append(byPath[v.Path], us)
		}
	}

	path, err := b.writeSystem(in.sys)
	if err != nil {
		return err
	}
	srv, err := b.startServer(path, false)
	if err != nil {
		return err
	}
	h := drive(srv.addr, seq, 0, time.Time{}, len(seq))
	if _, err := srv.stop(); err != nil {
		return err
	}
	res.check(true, h.ok, "")
	if h.failed > 0 {
		res.check(false, h.failed, "HTTP admission replay (seed %d): %d requests failed, first: %s", b.seed, h.failed, h.firstErr)
	}

	hits, misses := float64(st.CacheHits()), float64(st.CacheMisses())
	dirty, clean := float64(st.DirtyProcRecomputes()), float64(st.CleanProcReuses())
	res.set("admission.cache_us", median(byPath["cache"]))
	res.set("admission.incremental_us", median(byPath["incremental"]))
	res.set("admission.full_us", median(byPath["full"]))
	res.set("admission.commit_us", median(commitUS))
	res.set("admission.cache_hit_frac", hits/(hits+misses))
	res.set("admission.dirty_proc_frac", dirty/(dirty+clean))
	res.set("admission.http_overhead_us", median(h.latMS)*1e3-median(allUS))
	return nil
}
