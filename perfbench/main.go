// Command perfbench is rtsync's benchmark. It drives the sweep CLI
// (cmd/rtexperiments) and the admission service (cmd/rtsyncd) from outside,
// on inputs generated from a workload seed, checks their outputs, and prints
// one JSON result line. A traced run (-trace 1) instead times calls into each
// internal module on the same inputs. README.md describes the workloads, the
// metrics and how to read a run; run.sh builds everything and invokes it.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlAnalysis  = "analysis-sweep"
	wlSim       = "sim-sweep"
	wlAdmission = "admission"
)

// confirmSeed is kept out of every tuning run, so a claimed gain can be
// confirmed on inputs nobody tuned against.
const confirmSeed = 1_000_003

// sizes fixes how much work one invocation, launch series or script holds.
type sizes struct {
	analysisSystems int // systems per grid cell in one analysis-sweep invocation
	simSystems      int // systems per grid cell in one sim-sweep invocation
	setupLaunches   int // set-up launches after each invocation or load slice
	loadSlices      int // pairs of two-client and one-client slices in an admission run
	scriptLen       int // requests in one admission client's script
	replayRequests  int // requests per client in the traced admission replay
}

var (
	fullSizes = sizes{analysisSystems: 160, simSystems: 2, setupLaunches: 5, loadSlices: 10, scriptLen: 1200, replayRequests: 600}
	// tinySizes keep the smoke tests fast; the metrics are meaningless.
	tinySizes = sizes{analysisSystems: 1, simSystems: 1, setupLaunches: 1, loadSlices: 1, scriptLen: 40, replayRequests: 20}
)

// units maps every metric the benchmark can emit to its unit; BENCHMARK.json
// lists the same names and units (the tests hold the two together).
var units = map[string]string{
	"units_per_s":    "1/s",
	"units_per_s_1w": "1/s",
	"unit_p50_ms":    "ms",
	"unit_p99_ms":    "ms",
	"setup_s":        "s",
	"rss_peak_mb":    "MB",

	"workload.generate_us":            "us",
	"analysis.reset_us":               "us",
	"analysis.ds_ms":                  "ms",
	"analysis.pm_ms":                  "ms",
	"analysis.holistic_ms":            "ms",
	"analysis.mpcp_ms":                "ms",
	"analysis.dpcp_ms":                "ms",
	"analysis.unit_p99_ms":            "ms",
	"analysis.iters_per_solve":        "count",
	"analysis.ns_per_iter":            "ns",
	"sim.run_ms":                      "ms",
	"sim.events_per_run":              "count",
	"sim.ns_per_event":                "ns",
	"experiments.turnstile_wait_frac": "frac",
	"experiments.worker_busy_frac":    "frac",
	"experiments.analyze_frac":        "frac",
	"experiments.commit_us":           "us",
	"record.write_us":                 "us",
	"record.bytes_per_unit":           "B",
	"admission.cache_us":              "us",
	"admission.incremental_us":        "us",
	"admission.full_us":               "us",
	"admission.commit_us":             "us",
	"admission.cache_hit_frac":        "frac",
	"admission.dirty_proc_frac":       "frac",
	"admission.http_overhead_us":      "us",
	"obs.trace_overhead_frac":         "frac",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check counts n attempted operations and, when ok is false, n failed ones,
// explaining the failure on standard error.
func (r *result) check(ok bool, n int64, format string, args ...any) {
	r.Attempted += n
	if !ok {
		r.Failed += n
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// bench is one benchmark run.
type bench struct {
	root, bin string // checkout root; directory holding the built programs
	work      string // working directory for this run's files
	workload  string
	seed      int64
	seconds   float64
	sz        sizes
	pinned    pinnedDigests
}

func main() {
	var (
		root     = flag.String("root", ".", "root of the rtsync checkout")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding rtexperiments and rtsyncd")
		workload = flag.String("workload", "", "analysis-sweep, sim-sweep or admission")
		seed     = flag.Int64("seed", 1, "workload seed; every input derives from it")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: per-layer traced run instead of the end-to-end run")
		pin      = flag.String("pin-digests", "", "recompute digests.json for these seeds (e.g. 1-32,1000003) and exit")
	)
	flag.Parse()
	b := &bench{root: *root, bin: *bin, workload: *workload, seed: *seed, seconds: *seconds, sz: fullSizes}
	if err := b.prepare(); err != nil {
		fatal(err)
	}
	var err error
	if *pin != "" {
		err = b.pinDigests(*pin)
	} else {
		err = b.report(os.Stdout, *trace == 1)
	}
	os.RemoveAll(b.work)
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report runs the benchmark and prints the fingerprint line and then the
// result line.
func (b *bench) report(w io.Writer, traced bool) error {
	steal0, total0 := cpuStat()
	res, err := b.run(traced)
	if err != nil {
		return err
	}
	steal1, total1 := cpuStat()
	info := b.fingerprint(traced)
	// The share of CPU time the hypervisor gave other guests during the
	// run; on a shared VM it explains runs that are slow all over.
	if total1 > total0 {
		info["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	fp, err := json.Marshal(info)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "fingerprint %s\n%s\n", fp, line)
	return err
}

// prepare resolves paths, checks the programs exist and loads the pinned
// digests.
func (b *bench) prepare() error {
	var err error
	if b.root, err = filepath.Abs(b.root); err != nil {
		return err
	}
	if !filepath.IsAbs(b.bin) {
		b.bin = filepath.Join(b.root, b.bin)
	}
	for _, p := range []string{"rtexperiments", "rtsyncd"} {
		if _, err := os.Stat(filepath.Join(b.bin, p)); err != nil {
			return fmt.Errorf("program under test not built: %w", err)
		}
	}
	if b.pinned, err = loadPinned(filepath.Join(b.root, "perfbench", "digests.json")); err != nil {
		return err
	}
	if b.sz != fullSizes {
		b.pinned = nil // pinned for full-size invocations only
	}
	runs := filepath.Join(b.root, ".bench_build", "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return err
	}
	b.work, err = os.MkdirTemp(runs, "run-")
	return err
}

func (b *bench) run(traced bool) (*result, error) {
	if b.seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v is not positive", b.seconds)
	}
	res := &result{Metrics: map[string]metric{}}
	var err error
	switch {
	case b.workload != wlAnalysis && b.workload != wlSim && b.workload != wlAdmission:
		return nil, fmt.Errorf("unknown -workload %q (want %s, %s or %s)", b.workload, wlAnalysis, wlSim, wlAdmission)
	case traced:
		err = b.traced(res)
	case b.workload == wlAdmission:
		err = b.admissionE2E(res)
	default:
		err = b.sweepE2E(res)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no measurement", name)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// fingerprint identifies the machine, toolchain and source tree a run
// measured, so numbers from different runs are only compared knowingly.
func (b *bench) fingerprint(traced bool) map[string]any {
	commit := "unknown"
	if info, err := buildinfo.ReadFile(filepath.Join(b.bin, "rtexperiments")); err == nil {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]any{
		"workload":      b.workload,
		"seed":          b.seed,
		"confirm_seed":  confirmSeed,
		"seconds":       b.seconds,
		"trace":         traced,
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(b.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuStat reads the machine-wide stolen and total CPU time, in clock ticks,
// from /proc/stat; both are zero where it cannot be read.
func cpuStat() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// sourceDigest hashes the program's Go sources (everything but the
// benchmark and build output), identifying the code under test even where
// the checkout carries no version control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench" || rel == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// subSeed derives the i-th sub-seed of a workload seed (splitmix64). The
// result stays below 2^44, so the sweep's own per-system seed arithmetic
// never overflows, and nearby workload seeds share no sweeps.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 20)
}

// proc is one finished child process.
type proc struct {
	stdout []byte
	wall   time.Duration
	rssKB  int64
}

// runProc runs a program under test to completion, with extra environment
// entries appended to this process's environment.
func (b *bench) runProc(env []string, name string, args ...string) (proc, error) {
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.Env = append(os.Environ(), env...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return proc{}, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, tail(errb.Bytes()))
	}
	return proc{stdout: out.Bytes(), wall: wall, rssKB: maxRSS(cmd.ProcessState)}, nil
}

// maxRSS is a finished process's peak resident set in KiB.
func maxRSS(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

func tail(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 400 {
		s = "..." + s[len(s)-400:]
	}
	return s
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// median and quantile work on a copy; quantile interpolates linearly.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// perCall is a mean over calls, NaN when nothing was called.
func perCall(total float64, calls int64) float64 {
	if calls == 0 {
		return math.NaN()
	}
	return total / float64(calls)
}
