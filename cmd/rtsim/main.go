// Command rtsim simulates a distributed real-time system under one of the
// paper's synchronization protocols and reports metrics, an optional gantt
// chart, and trace-invariant checks.
//
// Usage:
//
//	rtsim -protocol rg -horizon 30 -gantt -example 2
//	rtsim -protocol ds -horizon 100000 system.json
//	rtsim -protocol pm system.json       # bounds from SA/PM automatically
//	rtsim -locking mpcp system.json      # arbitrate global resources (mpcp/dpcp)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"rtsync/internal/analysis"
	"rtsync/internal/gantt"
	"rtsync/internal/model"
	"rtsync/internal/obs"
	"rtsync/internal/report"
	"rtsync/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rtsim", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "rg", "protocol: ds, pm, mpm, rg, rg1, or all (side-by-side comparison)")
		horizon   = fs.Int64("horizon", 0, "simulation horizon in ticks (default 20x max period)")
		example   = fs.Int("example", 0, "use built-in example system (1 or 2)")
		chart     = fs.Bool("gantt", false, "render an ASCII schedule chart")
		chartTo   = fs.Int64("gantt-to", 0, "chart window end (default: horizon)")
		scale     = fs.Int64("gantt-scale", 1, "ticks per chart column")
		validate  = fs.Bool("validate", true, "check trace invariants after the run")
		traceOut  = fs.String("trace-out", "", "save the full execution trace as JSON (inspect with rttrace)")
		locking   = fs.String("locking", "hl", "locking protocol for global resources: hl, mpcp, or dpcp")
		tracePipe = fs.String("trace-pipeline", "", "write a Chrome trace-event JSON trace of the run's stages (load/analyze/run/report/validate) to this file; open in ui.perfetto.dev")
	)
	cli := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := cli.Start("rtsim", fs)
	if err != nil {
		return err
	}
	defer stopObs()

	// Engine counters feed the manifest and the debug endpoint; plain runs
	// keep stats nil so the event loop stays on its zero-cost path.
	var stats *obs.SimStats
	if cli.Observing() {
		stats = obs.NewSimStats()
		cli.AttachSimStats(stats)
	}

	// Stage spans land in one arena (rtsim is single-threaded); nil tracer
	// keeps every hook on its zero-cost branch, and the simulated schedule
	// itself is unaffected either way.
	var tracer *obs.PipelineTracer
	var spans *obs.SpanArena
	if *tracePipe != "" {
		tracer = obs.NewPipelineTracer()
		spans = tracer.Arena(0)
		cli.AttachTracer(tracer)
	}
	spanStart := func() int64 {
		if spans == nil {
			return 0
		}
		return spans.Clock()
	}
	spanEnd := func(ph obs.SpanPhase, t0 int64) {
		if spans != nil {
			spans.Record(ph, t0, spans.Clock(), -1, -1)
		}
	}
	writeTrace := func() error {
		if tracer == nil {
			return nil
		}
		f, err := os.Create(*tracePipe)
		if err != nil {
			return err
		}
		if err := tracer.WritePerfetto(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		cli.AddOutput(*tracePipe)
		fmt.Fprintf(os.Stderr, "wrote %s (%d spans)\n", *tracePipe, tracer.Summary().Spans)
		return nil
	}

	t0 := spanStart()
	var sys *model.System
	switch {
	case *example == 1:
		sys = model.Example1()
	case *example == 2:
		sys = model.Example2()
	case *example != 0:
		return fmt.Errorf("unknown example %d (want 1 or 2)", *example)
	case fs.NArg() == 1:
		var err error
		sys, err = model.LoadFile(fs.Arg(0))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: rtsim [flags] system.json (or -example N)")
	}
	spanEnd(obs.SpanLoad, t0)

	kind, err := parseLocking(*locking)
	if err != nil {
		return err
	}
	h := model.Time(*horizon)
	if h <= 0 {
		h = model.Time(int64(sys.MaxPeriod()) * 20)
	}
	if *protoName == "all" {
		if err := runComparison(w, sys, h, kind, stats, tracer); err != nil {
			return err
		}
		return writeTrace()
	}
	t0 = spanStart()
	protocol, err := buildProtocol(*protoName, sys)
	if err != nil {
		return err
	}
	spanEnd(obs.SpanAnalyze, t0)
	// A Runner instead of sim.Run so the span hook rides along; same engine,
	// same output.
	var runner sim.Runner
	if spans != nil {
		runner.Spans = spans
		runner.SpanLabel = tracer.RegisterLabels([]string{protocol.Name()})
		runner.SpanUnit = -1
	}
	needTrace := *chart || *validate || *traceOut != ""
	out, err := runner.Run(sys, sim.Config{Protocol: protocol, Horizon: h, Trace: needTrace, Locking: kind, Stats: stats})
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := out.Trace.SaveFile(*traceOut); err != nil {
			return err
		}
		cli.AddOutput(*traceOut)
		fmt.Fprintf(os.Stderr, "wrote trace to %s\n", *traceOut)
	}

	t0 = spanStart()
	fmt.Fprintf(w, "protocol %s, horizon %v, %d events, %d preemptions\n\n",
		protocol.Name(), h, out.Metrics.Events, out.Metrics.Preemptions)

	t := report.NewTable("per-task end-to-end response times",
		"task", "completed", "avg EER", "max EER", "max jitter", "misses")
	for i := range sys.Tasks {
		tm := &out.Metrics.Tasks[i]
		t.AddRowf(sys.Tasks[i].Name, tm.Completed, tm.AvgEER(),
			tm.MaxEER.String(), tm.MaxOutputJitter.String(), tm.DeadlineMisses)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if out.Metrics.PrecedenceViolations > 0 {
		fmt.Fprintf(w, "\nWARNING: %d precedence violations\n", out.Metrics.PrecedenceViolations)
	}
	if out.Metrics.Overruns > 0 {
		fmt.Fprintf(w, "WARNING: %d bound overruns\n", out.Metrics.Overruns)
	}

	if *chart {
		to := model.Time(*chartTo)
		if to == 0 {
			to = h
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, gantt.Render(out.Trace, gantt.Options{
			To:         to,
			Scale:      model.Duration(*scale),
			RulerEvery: 10,
		}))
	}
	spanEnd(obs.SpanReport, t0)

	t0 = spanStart()
	if *validate {
		opts := sim.ValidateOptions{
			CheckPrecedence: true,
			CheckRGSpacing:  protocol.Name() == "RG",
		}
		if problems := sim.Validate(out.Trace, opts); len(problems) > 0 {
			fmt.Fprintf(w, "\ntrace validation FAILED:\n")
			for _, p := range problems {
				fmt.Fprintf(w, "  %s\n", p)
			}
			return fmt.Errorf("%d trace invariant violations", len(problems))
		}
		fmt.Fprintln(w, "\ntrace validation passed")
		spanEnd(obs.SpanValidate, t0)
	}
	return writeTrace()
}

// runComparison simulates every runnable protocol over the same system and
// prints a side-by-side summary (avg, p95 and max EER, jitter, misses).
// stats, when non-nil, aggregates engine counters over all the runs;
// -cpuprofile samples are labeled protocol=<name>.
func runComparison(w io.Writer, sys *model.System, h model.Time, kind sim.LockingKind, stats *obs.SimStats, tracer *obs.PipelineTracer) error {
	names := []string{"ds", "rg", "rg1", "pm", "mpm"}
	t := report.NewTable(fmt.Sprintf("protocol comparison (horizon %v)", h),
		"protocol", "task", "avg EER", "p95 EER", "max EER", "max jitter", "misses")
	var protocols []sim.Protocol
	for _, name := range names {
		protocol, err := buildProtocol(name, sys)
		if err != nil {
			fmt.Fprintf(w, "skipping %s: %v\n", name, err)
			continue
		}
		protocols = append(protocols, protocol)
	}
	// One label per runnable protocol, so each run span names its protocol
	// in the trace.
	var spans *obs.SpanArena
	var labelBase int32
	if tracer != nil {
		spans = tracer.Arena(0)
		pnames := make([]string, len(protocols))
		for i, p := range protocols {
			pnames[i] = p.Name()
		}
		labelBase = tracer.RegisterLabels(pnames)
	}
	var runner sim.Runner
	runner.Spans = spans
	runner.SpanUnit = -1
	for i, p := range protocols {
		runner.SpanLabel = labelBase + int32(i)
		cfg := sim.Config{Protocol: p, Horizon: h, CollectSamples: true, Locking: kind, Stats: stats}
		var out *sim.Outcome
		var runErr error
		pprof.Do(context.Background(), pprof.Labels("protocol", p.Name()), func(context.Context) {
			out, runErr = runner.Run(sys, cfg)
		})
		if runErr != nil {
			return runErr
		}
		for j := range sys.Tasks {
			tm := &out.Metrics.Tasks[j]
			p95 := "-"
			if v, ok := tm.EERPercentile(95); ok {
				p95 = fmt.Sprintf("%.0f", v)
			}
			t.AddRowf(p.Name(), sys.Tasks[j].Name, tm.AvgEER(), p95,
				tm.MaxEER.String(), tm.MaxOutputJitter.String(), tm.DeadlineMisses)
		}
	}
	return t.Render(w)
}

// parseLocking maps the -locking flag to a sim.LockingKind.
func parseLocking(name string) (sim.LockingKind, error) {
	switch name {
	case "hl":
		return sim.LockingHL, nil
	case "mpcp":
		return sim.LockingMPCP, nil
	case "dpcp":
		return sim.LockingDPCP, nil
	}
	return sim.LockingHL, fmt.Errorf("unknown -locking %q (want hl, mpcp, or dpcp)", name)
}

// buildProtocol constructs the requested protocol, deriving SA/PM bounds
// when PM or MPM asks for them.
func buildProtocol(name string, sys *model.System) (sim.Protocol, error) {
	switch name {
	case "ds":
		return sim.NewDS(), nil
	case "rg":
		return sim.NewRG(), nil
	case "rg1":
		return sim.NewRGRule1Only(), nil
	case "pm", "mpm":
		res, err := analysis.AnalyzePM(sys, analysis.DefaultOptions())
		if err != nil {
			return nil, err
		}
		b := make(sim.Bounds, len(res.Bounds))
		for i, sb := range res.Bounds {
			id := res.Index.ID(i)
			if sb.Response.IsInfinite() {
				return nil, fmt.Errorf("cannot run %s: SA/PM bound for %v is infinite", name, id)
			}
			b[id] = sb.Response
		}
		if name == "pm" {
			return sim.NewPM(b), nil
		}
		return sim.NewMPM(b), nil
	default:
		return nil, fmt.Errorf("unknown protocol %q (want ds, pm, mpm, rg, rg1)", name)
	}
}
