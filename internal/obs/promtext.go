package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promtext renders SimStats and SweepProgress in the Prometheus text
// exposition format (version 0.0.4) with no dependencies: a scraper — or
// the future rtsyncd dispatcher — GETs /metrics off the -debug-addr mux
// and sees every engine counter and sweep gauge. The log2 Histograms map
// onto native Prometheus histograms: log2 bucket b covers values up to
// 2^b - 1 inclusive, so the cumulative `le` series is exact (the overflow
// bucket has no finite bound and folds only into `+Inf`).

// PromContentType is the Content-Type of the 0.0.4 text format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promEscaper escapes a label value per the exposition format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one un-labeled sample line.
func (p *promWriter) sample(name string, v int64) {
	p.printf("%s %d\n", name, v)
}

// sampleF emits one un-labeled float sample line.
func (p *promWriter) sampleF(name string, v float64) {
	p.printf("%s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

// labeled emits one sample with a single label.
func (p *promWriter) labeled(name, label, value string, v int64) {
	p.printf("%s{%s=%q} %d\n", name, label, promEscaper.Replace(value), v)
}

func (p *promWriter) labeledF(name, label, value string, v float64) {
	p.printf("%s{%s=%q} %s\n", name, label, promEscaper.Replace(value), strconv.FormatFloat(v, 'g', -1, 64))
}

// histogram renders a log2 Histogram as a native Prometheus histogram:
// cumulative counts at le = 2^b - 1 for every finite bucket, the overflow
// bucket folded into +Inf, then _sum and _count.
func (p *promWriter) histogram(name, help string, h *Histogram) {
	p.header(name, "histogram", help)
	cum := int64(0)
	for b := 0; b < HistBuckets-1; b++ {
		cum += h.counts[b].Load()
		upTo := int64(0)
		if b > 0 {
			upTo = 1<<uint(b) - 1
		}
		p.printf("%s_bucket{le=\"%d\"} %d\n", name, upTo, cum)
	}
	cum += h.counts[HistBuckets-1].Load()
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	p.printf("%s_sum %d\n", name, h.sum.Load())
	p.printf("%s_count %d\n", name, h.n.Load())
}

// WritePromText renders sim, sweep and analysis (any may be nil) to w in
// the Prometheus text exposition format. Counter reads are the same
// lock-free atomic loads the expvar endpoint uses, so scraping never
// perturbs a running sweep.
func WritePromText(w io.Writer, sim *SimStats, sweep *SweepProgress, analysis *AnalysisStats) error {
	p := &promWriter{w: w}
	if sim != nil {
		p.header("rtsync_sim_events_total", "counter", "Simulation events popped, by event op.")
		for op, name := range eventOpNames {
			p.labeled("rtsync_sim_events_total", "op", name, sim.events[op].Load())
		}
		p.header("rtsync_sim_preemptions_total", "counter", "Jobs displaced from a processor mid-execution.")
		p.sample("rtsync_sim_preemptions_total", sim.preemptions.Load())
		p.header("rtsync_sim_context_switches_total", "counter", "Job dispatches onto a processor.")
		p.sample("rtsync_sim_context_switches_total", sim.contextSwitches.Load())
		p.header("rtsync_sim_release_guard_stalls_total", "counter", "Synchronization signals held by the Release Guard protocol.")
		p.sample("rtsync_sim_release_guard_stalls_total", sim.rgStalls.Load())
		p.header("rtsync_sim_event_queue_high_water", "gauge", "Deepest event-queue occupancy observed.")
		p.sample("rtsync_sim_event_queue_high_water", sim.queueHighWater.Load())
		p.header("rtsync_sim_runs_total", "counter", "Completed simulation runs.")
		p.sample("rtsync_sim_runs_total", sim.runs.Load())
		p.header("rtsync_sim_lock_acquisitions_total", "counter", "Critical-section entries (local or global resources).")
		p.sample("rtsync_sim_lock_acquisitions_total", sim.lockAcquisitions.Load())
		p.header("rtsync_sim_lock_suspensions_total", "counter", "Jobs suspended on a busy global resource.")
		p.sample("rtsync_sim_lock_suspensions_total", sim.lockSuspensions.Load())
		p.header("rtsync_sim_priority_boosts_total", "counter", "Critical sections raising their holder above base priority.")
		p.sample("rtsync_sim_priority_boosts_total", sim.priorityBoosts.Load())
		p.header("rtsync_sim_idle_ticks_total", "counter", "Idle processor ticks, by processor index.")
		for proc := 0; proc < MaxProcs; proc++ {
			if v := sim.idle[proc].Load(); v != 0 {
				p.labeled("rtsync_sim_idle_ticks_total", "proc", strconv.Itoa(proc), v)
			}
		}
		p.histogram("rtsync_sim_stall_ticks", "Release Guard stall durations in ticks.", &sim.stall)
		p.histogram("rtsync_sim_lock_stall_ticks", "Global-resource suspension durations in ticks.", &sim.lockStall)
	}
	if sweep != nil {
		s := sweep.Snapshot()
		p.header("rtsync_sweep_units_done", "gauge", "Sweep units completed so far.")
		p.sample("rtsync_sweep_units_done", s.UnitsDone)
		p.header("rtsync_sweep_units_total", "gauge", "Sweep units announced in total.")
		p.sample("rtsync_sweep_units_total", s.UnitsTotal)
		p.header("rtsync_sweep_schedulable_total", "counter", "Analyzed systems found schedulable.")
		p.sample("rtsync_sweep_schedulable_total", s.Schedulable)
		p.header("rtsync_sweep_unschedulable_total", "counter", "Analyzed systems found unschedulable.")
		p.sample("rtsync_sweep_unschedulable_total", s.Unschedulable)
		p.header("rtsync_sweep_elapsed_seconds", "gauge", "Wall seconds since progress tracking started.")
		p.sampleF("rtsync_sweep_elapsed_seconds", s.ElapsedSec)
		p.header("rtsync_sweep_systems_per_second", "gauge", "Whole-sweep unit throughput.")
		p.sampleF("rtsync_sweep_systems_per_second", s.SystemsPerSec)
		p.header("rtsync_sweep_eta_seconds", "gauge", "Estimated seconds to sweep completion at the current rate.")
		p.sampleF("rtsync_sweep_eta_seconds", s.ETASec)
		if len(s.Cells) > 0 {
			p.header("rtsync_sweep_cell_units", "gauge", "Units completed, by sweep cell.")
			for _, c := range s.Cells {
				p.labeled("rtsync_sweep_cell_units", "cell", c.Cell, c.Units)
			}
			p.header("rtsync_sweep_cell_wall_seconds", "gauge", "Worker wall seconds spent, by sweep cell.")
			for _, c := range s.Cells {
				p.labeledF("rtsync_sweep_cell_wall_seconds", "cell", c.Cell, c.WallSec)
			}
		}
	}
	if analysis != nil {
		p.header("rtsync_analysis_warm_solves_total", "counter", "Fixed-point solves handed a nonzero warm seed.")
		p.sample("rtsync_analysis_warm_solves_total", analysis.warmSolves.Load())
		p.header("rtsync_analysis_cache_hits_total", "counter", "Analyses served from the result cache.")
		p.sample("rtsync_analysis_cache_hits_total", analysis.cacheHits.Load())
		p.header("rtsync_analysis_cache_misses_total", "counter", "Cache lookups that had to analyze.")
		p.sample("rtsync_analysis_cache_misses_total", analysis.cacheMisses.Load())
		p.header("rtsync_analysis_cache_evictions_total", "counter", "LRU cache entries displaced by inserts.")
		p.sample("rtsync_analysis_cache_evictions_total", analysis.cacheEvictions.Load())
		p.header("rtsync_analysis_delta_analyses_total", "counter", "Incremental (dirty-processor) re-analyses.")
		p.sample("rtsync_analysis_delta_analyses_total", analysis.deltaAnalyses.Load())
		p.header("rtsync_analysis_dirty_proc_recomputes_total", "counter", "Processors re-solved by incremental deltas.")
		p.sample("rtsync_analysis_dirty_proc_recomputes_total", analysis.dirtyProcRecomputes.Load())
		p.header("rtsync_analysis_clean_proc_reuses_total", "counter", "Processors reused untouched by incremental deltas.")
		p.sample("rtsync_analysis_clean_proc_reuses_total", analysis.cleanProcReuses.Load())
		p.header("rtsync_analysis_subtasks_recomputed_total", "counter", "Subtask bounds recomputed by incremental deltas.")
		p.sample("rtsync_analysis_subtasks_recomputed_total", analysis.subtasksRecomputed.Load())
		p.header("rtsync_analysis_subtasks_reused_total", "counter", "Subtask bounds copied forward by incremental deltas.")
		p.sample("rtsync_analysis_subtasks_reused_total", analysis.subtasksReused.Load())
		p.histogram("rtsync_analysis_fixpoint_iters", "Demand evaluations per inner fixed-point solve.", &analysis.fixpointIters)
		p.histogram("rtsync_analysis_outer_iters", "Outer passes per iterative analysis.", &analysis.outerIters)
	}
	return p.err
}

// metricsHandler serves the published SimStats/SweepProgress/AnalysisStats
// (the same globals the expvar endpoint reads) as /metrics.
func metricsHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	_ = WritePromText(w, pubSim.Load(), pubSweep.Load(), pubAnalysis.Load())
}
