// Command rtexperiments regenerates the paper's evaluation figures
// (§5, Figures 12–16) and this reproduction's ablations over freshly
// generated workloads.
//
// Usage:
//
//	rtexperiments -figure 12 -systems 100
//	rtexperiments -figure 14 -systems 25 -horizon-periods 20
//	rtexperiments -figure all -systems 25
//	rtexperiments -figure overhead
//	rtexperiments -figure release-jitter -systems 10
//
// Figures 14, 15 and 16 come from one shared simulation sweep, so asking
// for any of them runs the same study. CSV export: -csv prefix writes
// <prefix>-figNN.csv files.
//
// -warm-start seeds every fixed-point solve from a sound analytic lower
// bound: figure output and record stores are byte-identical either way
// (tools/verify-results.sh proves it), only iteration counts drop — visible
// in the rtsync_analysis_fixpoint_iters histogram on /metrics and in
// manifests.
//
// The sweep grid is configurable: -grid-n/-grid-u/-grid-period-ratio take
// comma-separated axis values, -grid-seeds accumulates several full sweeps
// into one result set, and -trials multiplies -systems. Study knobs
// (-jitter-fraction, -exec-fractions, -protocols) parameterize individual
// studies.
//
// Every swept system can be streamed to a result store: -jsonl writes one
// versioned CellRecord per system (deterministic at any parallelism),
// -records-csv the same stream in long-form CSV. cmd/rtreport regenerates
// any figure from such a store without re-running the sweep. -record-timings
// and -record-stats add per-phase wall timings and engine-counter deltas to
// each record (timings are volatile, so byte-reproducible stores leave them
// off).
//
// Observability (none of it changes figure output): -progress prints live
// sweep status lines to stderr, -manifest out.json records the full run
// (flags, build info, engine counters, output checksums), -debug-addr
// serves /debug/pprof, /debug/vars and a Prometheus-format /metrics
// endpoint while the sweep runs, and -trace-pipeline out.json records
// every swept unit's pipeline phases as a Perfetto-loadable trace (one
// track per worker).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rtsync/internal/analysis"
	"rtsync/internal/experiments"
	"rtsync/internal/gridflag"
	"rtsync/internal/obs"
	"rtsync/internal/record"
	"rtsync/internal/report"
	"rtsync/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtexperiments:", err)
		os.Exit(1)
	}
}

// recordSinks fans one committed record out to the enabled store formats.
type recordSinks struct {
	jsonl *record.Writer
	csvw  *record.CSVWriter
}

func (s *recordSinks) Write(r *record.CellRecord) error {
	if s.jsonl != nil {
		if err := s.jsonl.Write(r); err != nil {
			return err
		}
	}
	if s.csvw != nil {
		return s.csvw.Write(r)
	}
	return nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rtexperiments", flag.ContinueOnError)
	var (
		figure   = fs.String("figure", "all", strings.Join(experiments.FigureNames(), ", ")+", or all")
		systems  = fs.Int("systems", 50, "systems per configuration (paper: 1000)")
		seed     = fs.Int64("seed", 1, "sweep seed")
		warm     = fs.Bool("warm-start", false, "seed fixed-point solves from sound lower bounds (identical figures, fewer iterations)")
		hp       = fs.Int64("horizon-periods", 20, "simulation horizon in multiples of the max period")
		nMin     = fs.Int("nmin", 2, "smallest subtask count")
		nMax     = fs.Int("nmax", 8, "largest subtask count")
		csv      = fs.String("csv", "", "also write CSV files with this path prefix")
		progress = fs.Bool("progress", false, "print periodic sweep status lines (cells done, rate, ETA) to stderr")

		gridN     = fs.String("grid-n", "", "comma-separated subtask counts (overrides -nmin/-nmax)")
		gridU     = fs.String("grid-u", "", "comma-separated per-processor utilizations (default 0.5,0.6,0.7,0.8,0.9)")
		gridRatio = fs.String("grid-period-ratio", "", "comma-separated period-max/period-min ratios (default: the generator's 100x)")
		gridSeeds = fs.String("grid-seeds", "", "comma-separated sweep seeds accumulated into one result set (default: -seed)")
		trials    = fs.Int("trials", 1, "replications: multiplies -systems")

		jitterStr = fs.String("jitter-fraction", "0.5", "release-jitter study: comma-separated max extra delay fractions of the period")
		execFracs = fs.String("exec-fractions", "1.0,0.75,0.5,0.25", "exec-variation study: comma-separated BCET/WCET ratios")
		protocols = fs.String("protocols", "hl,mpcp,dpcp", "locking study: comma-separated protocol subset (hl, mpcp, dpcp)")

		tracePath = fs.String("trace-pipeline", "", "write a Chrome trace-event JSON pipeline trace (one track per worker) to this file; open in ui.perfetto.dev")

		jsonlPath  = fs.String("jsonl", "", "stream one CellRecord JSONL line per swept system to this file")
		recCSVPath = fs.String("records-csv", "", "stream the record store as long-form CSV to this file")
		recTimings = fs.Bool("record-timings", false, "add per-phase wall timings to each record (volatile across runs)")
		recStats   = fs.Bool("record-stats", false, "add per-system engine-counter deltas to each record")
	)
	cli := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := cli.Start("rtexperiments", fs)
	if err != nil {
		return err
	}
	defer stopObs()

	valid := *figure == "all"
	for _, name := range experiments.FigureNames() {
		if *figure == name {
			valid = true
		}
	}
	if !valid {
		return fmt.Errorf("unknown -figure %q (valid: %s, all)", *figure, strings.Join(experiments.FigureNames(), ", "))
	}

	ns, err := gridflag.Ints(*gridN)
	if err != nil {
		return fmt.Errorf("-grid-n: %w", err)
	}
	if ns == nil {
		for n := *nMin; n <= *nMax; n++ {
			ns = append(ns, n)
		}
	}
	us, err := gridflag.Floats(*gridU)
	if err != nil {
		return fmt.Errorf("-grid-u: %w", err)
	}
	if us == nil {
		us = []float64{0.5, 0.6, 0.7, 0.8, 0.9}
	}
	ratios, err := gridflag.Floats(*gridRatio)
	if err != nil {
		return fmt.Errorf("-grid-period-ratio: %w", err)
	}
	var configs []workload.Config
	for _, n := range ns {
		for _, u := range us {
			base := workload.DefaultConfig(n, u)
			if len(ratios) == 0 {
				configs = append(configs, base)
				continue
			}
			for _, r := range ratios {
				c := base
				c.PeriodMax = c.PeriodMin * r
				configs = append(configs, c)
			}
		}
	}
	for _, c := range configs {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	seeds, err := gridflag.Int64s(*gridSeeds)
	if err != nil {
		return fmt.Errorf("-grid-seeds: %w", err)
	}
	if seeds == nil {
		seeds = []int64{*seed}
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d below 1", *trials)
	}
	perConfig := *systems * *trials

	jfracs, err := gridflag.Floats(*jitterStr)
	if err != nil {
		return fmt.Errorf("-jitter-fraction: %w", err)
	}
	if len(jfracs) == 0 {
		jfracs = []float64{0.5}
	}
	sargs := experiments.DefaultStudyArgs()
	sargs.JitterFraction = jfracs[0]
	if sargs.ExecFractions, err = gridflag.Floats(*execFracs); err != nil {
		return fmt.Errorf("-exec-fractions: %w", err)
	}
	if ps := gridflag.Strings(*protocols); ps != nil {
		sargs.Protocols = ps
	}

	aopts := analysis.DefaultOptions()
	aopts.WarmStart = *warm

	p := experiments.Params{
		Configs:          configs,
		SystemsPerConfig: perConfig,
		Seed:             seeds[0],
		HorizonPeriods:   *hp,
		Analysis:         aopts,
		RecordTimings:    *recTimings,
		RecordSimCounts:  *recStats,
	}
	// Telemetry never touches the sweep's ordered commits, so enabling any
	// of this changes no figure output. A plain run leaves these fields nil
	// and the sweep on its zero-cost path.
	var tracer *obs.PipelineTracer
	stopSampler := func() {}
	if *tracePath != "" {
		tracer = obs.NewPipelineTracer()
		p.Trace = tracer
		cli.AttachTracer(tracer)
	}
	if *progress || tracer != nil || cli.Observing() {
		sp := obs.NewSweepProgress()
		p.Progress = sp
		cli.AttachSweepProgress(sp)
		if *progress {
			stopReporter := sp.StartReporter(os.Stderr, 2*time.Second)
			defer stopReporter()
		}
		if tracer != nil {
			stopSampler = tracer.StartSampler(sp, 250*time.Millisecond)
			defer stopSampler() // idempotent; normal exits stop it inline
		}
	}
	if cli.Observing() {
		st := obs.NewSimStats()
		p.Stats = st
		cli.AttachSimStats(st)
		ast := obs.NewAnalysisStats()
		p.AnalysisStats = ast
		cli.AttachAnalysisStats(ast)
	}

	var sinks recordSinks
	var storeFiles []*os.File
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			return err
		}
		storeFiles = append(storeFiles, f)
		sinks.jsonl = record.NewWriter(f)
	}
	if *recCSVPath != "" {
		f, err := os.Create(*recCSVPath)
		if err != nil {
			return err
		}
		storeFiles = append(storeFiles, f)
		sinks.csvw = record.NewCSVWriter(f)
	}
	if len(storeFiles) > 0 {
		p.Records = &sinks
	}
	defer func() {
		for _, f := range storeFiles {
			f.Close()
		}
	}()

	emit := func(name string, t *report.Table) error {
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if *csv != "" {
			path := fmt.Sprintf("%s-%s.csv", *csv, name)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			cli.AddOutput(path)
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		return nil
	}

	want := func(name string) bool { return *figure == "all" || *figure == name }

	// runStudy accumulates every sweep seed into one view and emits the
	// study's wanted outputs (suffix distinguishes repeat runs, e.g. the
	// extra jitter fractions).
	runStudy := func(st experiments.Study, a experiments.StudyArgs, outputs []experiments.Output, suffix string) error {
		v := st.New(a)
		start := time.Now()
		for _, s := range seeds {
			ps := p
			ps.Seed = s
			if err := st.Run(ps, a, v); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "[%s, %v]\n", st.Note(perConfig), time.Since(start).Round(time.Millisecond))
		for _, o := range outputs {
			if err := emit(o.Name+suffix, o.Table(v)); err != nil {
				return err
			}
		}
		return nil
	}

	for _, st := range experiments.Studies() {
		var outputs []experiments.Output
		for _, f := range st.Figures {
			if want(f.Name) {
				outputs = append(outputs, f.Outputs...)
			}
		}
		if len(outputs) == 0 {
			continue
		}
		if st.Static {
			for _, o := range outputs {
				if err := emit(o.Name, o.Table(nil)); err != nil {
					return err
				}
			}
			continue
		}
		if st.Name == "release-jitter" {
			// One sweep per requested fraction; the first keeps the plain
			// output name so default invocations are unchanged.
			for fi, f := range jfracs {
				a := sargs
				a.JitterFraction = f
				suffix := ""
				if fi > 0 {
					suffix = fmt.Sprintf("-f%g", f)
				}
				if err := runStudy(st, a, outputs, suffix); err != nil {
					return err
				}
			}
			continue
		}
		if err := runStudy(st, sargs, outputs, ""); err != nil {
			return err
		}
	}

	if sinks.jsonl != nil {
		if err := sinks.jsonl.Flush(); err != nil {
			return err
		}
		cli.AddOutput(*jsonlPath)
		fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", *jsonlPath, sinks.jsonl.Count())
	}
	if sinks.csvw != nil {
		if err := sinks.csvw.Flush(); err != nil {
			return err
		}
		cli.AddOutput(*recCSVPath)
		fmt.Fprintf(os.Stderr, "wrote %s\n", *recCSVPath)
	}
	if tracer != nil {
		// Stop the counter sampler (final sample included) before export,
		// and write the file here — before the deferred obs stop — so the
		// manifest checksums it like any other output.
		stopSampler()
		f, err := os.Create(*tracePath)
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
		cli.AddOutput(*tracePath)
		fmt.Fprintf(os.Stderr, "wrote %s (%d spans)\n", *tracePath, tracer.Summary().Spans)
	}
	for _, f := range storeFiles {
		if err := f.Close(); err != nil {
			return err
		}
	}
	storeFiles = nil
	return nil
}
