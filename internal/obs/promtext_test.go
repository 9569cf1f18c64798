package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promSampleLine matches one exposition-format sample: metric name,
// optional single-label set, and an integer or float value.
var promSampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [-+0-9.eE]+(Inf|NaN)?$`)

// checkPromText validates text against the 0.0.4 exposition format line by
// line: every sample parses, every sample's metric has a preceding # TYPE,
// and histograms carry le buckets ending at +Inf with _sum and _count.
func checkPromText(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			types[f[2]] = f[3]
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && types[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := types[base]; !ok {
			t.Errorf("sample %q has no preceding # TYPE", name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types
}

func TestWritePromText(t *testing.T) {
	st := NewSimStats()
	st.NoteRun()
	st.NoteRun()
	st.CountEvent(0)
	st.NotePreemption()
	st.NoteContextSwitch()
	st.NoteRGStall(5)    // log2 bucket 3 (le "7")
	st.NoteRGStall(1000) // log2 bucket 10 (le "1023")
	st.NoteLockAcquisition()
	st.NoteLockSuspension(12)
	st.NotePriorityBoost()
	st.ObserveQueueDepth(17)
	st.AddIdle(1, 42)

	sp := NewSweepProgress()
	run := sp.StartSweep([]string{"(3,50)", "(5,70)"}, 2, 1)
	sh := run.Shard(0)
	sh.UnitDone(0, 2*time.Millisecond)
	sh.NoteSchedulable(true)
	sh.NoteSchedulable(false)

	an := NewAnalysisStats()
	an.ObserveFixpoint(3, false) // log2 bucket 2 (le "3")
	an.ObserveFixpoint(1, true)  // warm seed, le "1"
	an.ObserveOuter(6)
	an.NoteCacheHit()
	an.NoteCacheHit()
	an.NoteCacheMiss()
	an.NoteCacheEviction()
	an.NoteDelta(1, 3, 24, 72)

	var buf bytes.Buffer
	if err := WritePromText(&buf, st, sp, an); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	types := checkPromText(t, text)

	for name, typ := range map[string]string{
		"rtsync_sim_runs_total":                       "counter",
		"rtsync_sim_preemptions_total":                "counter",
		"rtsync_sim_event_queue_high_water":           "gauge",
		"rtsync_sim_stall_ticks":                      "histogram",
		"rtsync_sim_lock_stall_ticks":                 "histogram",
		"rtsync_sweep_units_done":                     "gauge",
		"rtsync_sweep_schedulable_total":              "counter",
		"rtsync_sweep_cell_units":                     "gauge",
		"rtsync_analysis_cache_hits_total":            "counter",
		"rtsync_analysis_dirty_proc_recomputes_total": "counter",
		"rtsync_analysis_fixpoint_iters":              "histogram",
		"rtsync_analysis_outer_iters":                 "histogram",
	} {
		if got := types[name]; got != typ {
			t.Errorf("metric %s has type %q, want %q", name, got, typ)
		}
	}
	for _, want := range []string{
		"rtsync_sim_runs_total 2\n",
		"rtsync_sim_event_queue_high_water 17\n",
		`rtsync_sim_idle_ticks_total{proc="1"} 42` + "\n",
		// Cumulative le buckets: the 5-tick stall enters at le="7", the
		// 1000-tick one at le="1023"; +Inf sees both; sum and count exact.
		`rtsync_sim_stall_ticks_bucket{le="7"} 1` + "\n",
		`rtsync_sim_stall_ticks_bucket{le="511"} 1` + "\n",
		`rtsync_sim_stall_ticks_bucket{le="1023"} 2` + "\n",
		`rtsync_sim_stall_ticks_bucket{le="+Inf"} 2` + "\n",
		"rtsync_sim_stall_ticks_sum 1005\n",
		"rtsync_sim_stall_ticks_count 2\n",
		"rtsync_sweep_units_done 1\n",
		"rtsync_sweep_schedulable_total 1\n",
		"rtsync_sweep_unschedulable_total 1\n",
		`rtsync_sweep_cell_units{cell="(3,50)"} 1` + "\n",
		"rtsync_analysis_warm_solves_total 1\n",
		"rtsync_analysis_cache_hits_total 2\n",
		"rtsync_analysis_cache_misses_total 1\n",
		"rtsync_analysis_cache_evictions_total 1\n",
		"rtsync_analysis_delta_analyses_total 1\n",
		"rtsync_analysis_dirty_proc_recomputes_total 1\n",
		"rtsync_analysis_clean_proc_reuses_total 3\n",
		"rtsync_analysis_subtasks_recomputed_total 24\n",
		"rtsync_analysis_subtasks_reused_total 72\n",
		// The 3-evaluation solve lands at le="3", the warm 1-evaluation
		// one at le="1"; sum and count exact.
		`rtsync_analysis_fixpoint_iters_bucket{le="1"} 1` + "\n",
		`rtsync_analysis_fixpoint_iters_bucket{le="3"} 2` + "\n",
		"rtsync_analysis_fixpoint_iters_sum 4\n",
		"rtsync_analysis_fixpoint_iters_count 2\n",
		`rtsync_analysis_outer_iters_bucket{le="7"} 1` + "\n",
		"rtsync_analysis_outer_iters_count 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestWritePromTextNil checks every source is optional: a nil SimStats,
// SweepProgress or AnalysisStats just omits its families.
func TestWritePromTextNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePromText(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil sources produced output: %q", buf.String())
	}
	buf.Reset()
	if err := WritePromText(&buf, NewSimStats(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rtsync_sim_runs_total 0") {
		t.Error("sim-only output missing sim metrics")
	}
	if strings.Contains(buf.String(), "rtsync_sweep_") {
		t.Error("sim-only output contains sweep metrics")
	}
	if strings.Contains(buf.String(), "rtsync_analysis_") {
		t.Error("sim-only output contains analysis metrics")
	}
	buf.Reset()
	if err := WritePromText(&buf, nil, nil, NewAnalysisStats()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rtsync_analysis_cache_hits_total 0") {
		t.Error("analysis-only output missing analysis metrics")
	}
}

// TestHistogramBucketBounds pins the log2 → le mapping at the edges: value
// 0 lands in le="0", value 1 in le="1", and a value past the last finite
// bucket only in +Inf.
func TestHistogramBucketBounds(t *testing.T) {
	st := NewSimStats()
	st.NoteRGStall(0)
	st.NoteRGStall(1)
	st.NoteRGStall(1 << 40) // overflow bucket
	var buf bytes.Buffer
	if err := WritePromText(&buf, st, nil, nil); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	last := int64(1)<<uint(HistBuckets-2) - 1
	for _, want := range []string{
		`rtsync_sim_stall_ticks_bucket{le="0"} 1` + "\n",
		`rtsync_sim_stall_ticks_bucket{le="1"} 2` + "\n",
		fmt.Sprintf("rtsync_sim_stall_ticks_bucket{le=%q} 2\n", strconv.FormatInt(last, 10)),
		`rtsync_sim_stall_ticks_bucket{le="+Inf"} 3` + "\n",
		"rtsync_sim_stall_ticks_count 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestMetricsEndpoint serves /metrics off the live debug mux and checks the
// content type and body against the published counters.
func TestMetricsEndpoint(t *testing.T) {
	st := NewSimStats()
	st.NoteRun()
	PublishSimStats(st)
	sp := NewSweepProgress()
	sp.StartSweep([]string{"(3,50)"}, 2, 1).Shard(0).NoteSchedulable(true)
	PublishSweepProgress(sp)

	d, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", d.Addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	checkPromText(t, text)
	for _, want := range []string{
		"rtsync_sim_runs_total 1\n",
		"rtsync_sweep_schedulable_total 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// BenchmarkPromText measures one full exposition render — the per-scrape
// cost a running sweep pays on its debug endpoint.
func BenchmarkPromText(b *testing.B) {
	st := NewSimStats()
	for i := 0; i < 100; i++ {
		st.NoteRun()
		st.CountEvent(i % NumEventOps)
		st.NoteRGStall(int64(i) * 7)
		st.AddIdle(i%4, int64(i))
	}
	sp := NewSweepProgress()
	run := sp.StartSweep([]string{"(2,50)", "(4,70)", "(8,90)"}, 100, 4)
	sh := run.Shard(0)
	for i := 0; i < 50; i++ {
		sh.UnitDone(i%3, time.Millisecond)
		sh.NoteSchedulable(i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePromText(io.Discard, st, sp, nil); err != nil {
			b.Fatal(err)
		}
	}
}
