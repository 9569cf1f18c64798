// Command benchjson reruns benchmark packages and rewrites the "after"
// section of a BENCH_*.json trajectory file in place, preserving the
// hand-written description, the frozen "before" capture, and the notes.
//
// Usage (what `make bench-analysis` runs):
//
//	go run ./tools/benchjson -out BENCH_analysis.json -count 5 \
//	    -pkg ./internal/analysis -bench BenchmarkAnalyze -benchtime 10x
//
// -pkg takes a comma-separated package list; results merge into one "after"
// map. Benchmarks reporting a custom ns/event or ns/term metric keep it as
// "ns_event" or "ns_term".
//
// -count N is handed to go test, so each benchmark runs N times; its lines
// fold into one measurement: the median ns/op, ns/event and ns/term (the
// mean of the middle two for an even N) and the largest B/op and
// allocs/op. One timing of a benchmark on a shared machine can land
// anywhere in a spread wider than a regression gate, a median of five
// rarely does.
//
// A baseline that names a benchmark the run no longer produces fails the
// command loudly: a renamed or deleted benchmark must be renamed in its
// BENCH_*.json in the same change, or the trajectory silently rots. -check
// verifies that property (at -benchtime 1x in CI) without rewriting the
// file.
//
// -max-regress and -max-regress-allocs turn -check into a regression gate:
// each fresh measurement is compared against the committed "after" baseline
// and the command fails if ns/op, ns/event or ns/term regresses by more than
// -max-regress percent, or allocs/op by more than -max-regress-allocs
// percent (plus an absolute slack of 2 allocs, so tiny baselines don't trip
// on noise). Thresholded runs only make sense at the same -benchtime the
// baseline was captured with — a 1x run measures cold-start, not steady
// state. An intentional regression re-baselines with -update, which accepts
// the new numbers and rewrites the file (`make bench-check UPDATE=1`).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches `go test -benchmem` output, with or without a custom
// ns/event or ns/term metric between ns/op and B/op, e.g.
//
//	BenchmarkAnalyzeDS-8   10   9264590 ns/op   125884 B/op   77 allocs/op
//	BenchmarkEngineEvents  10   1056770 ns/op   171.3 ns/event   13448 B/op   36 allocs/op
//	BenchmarkDemand-8      10     51680 ns/op   4.305 ns/term   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op(?:\s+(\d+(?:\.\d+)?) ns/(event|term))?\s+(\d+) B/op\s+(\d+) allocs/op`)

type measurement struct {
	NsOp     float64 `json:"ns_op"`
	NsEvent  float64 `json:"ns_event,omitempty"`
	NsTerm   float64 `json:"ns_term,omitempty"`
	BOp      int64   `json:"B_op"`
	AllocsOp int64   `json:"allocs_op"`
}

type trajectory struct {
	Description string                 `json:"description"`
	Before      map[string]measurement `json:"before"`
	After       map[string]measurement `json:"after"`
	Notes       []string               `json:"notes"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_analysis.json", "trajectory file to update in place")
		pkg        = flag.String("pkg", "./internal/analysis", "comma-separated packages whose benchmarks to run")
		bench      = flag.String("bench", "BenchmarkAnalyze", "benchmark name regexp")
		benchtime  = flag.String("benchtime", "10x", "go test -benchtime value")
		count      = flag.Int("count", 1, "go test -count value; repeated runs fold to the median time and the largest B/op and allocs/op")
		check      = flag.Bool("check", false, "verify baseline benchmarks still exist; do not rewrite -out")
		maxRegress = flag.Float64("max-regress", 0,
			"fail if ns/op, ns/event or ns/term regresses more than this percent vs the committed after baseline (0 disables; run at the baseline's -benchtime)")
		maxRegressAllocs = flag.Float64("max-regress-allocs", 0,
			"fail if allocs/op regresses more than this percent plus 2 allocs absolute slack vs the committed after baseline (0 disables)")
		update = flag.Bool("update", false,
			"accept regressions beyond the thresholds and rewrite -out with the new numbers (the intentional-regression escape hatch)")
	)
	flag.Parse()
	if err := run(*out, *pkg, *bench, *benchtime, *count, *check, *update, *maxRegress, *maxRegressAllocs); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out, pkgs, bench, benchtime string, count int, check, update bool, maxRegress, maxRegressAllocs float64) error {
	runs := make(map[string][]measurement)
	for _, pkg := range strings.Split(pkgs, ",") {
		cmd := exec.Command("go", "test", "-run", "NONE", "-bench", bench,
			"-benchmem", "-benchtime", benchtime, "-count", strconv.Itoa(count), pkg)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go test %s: %w", pkg, err)
		}
		parse(string(raw), runs)
	}
	after := fold(runs)
	if len(after) == 0 {
		return fmt.Errorf("no benchmark lines matched %q in %s", bench, pkgs)
	}

	var t trajectory
	if prev, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(prev, &t); err != nil {
			return fmt.Errorf("parse existing %s: %w", out, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if missing := missingBaselines(&t, after, bench); len(missing) > 0 {
		return fmt.Errorf("baseline %s names benchmarks the run no longer produces: %s\n"+
			"(a renamed or deleted benchmark must be renamed in %s in the same change)",
			out, strings.Join(missing, ", "), out)
	}
	if maxRegress > 0 || maxRegressAllocs > 0 {
		if regressions := findRegressions(t.After, after, maxRegress, maxRegressAllocs); len(regressions) > 0 {
			if !update {
				return fmt.Errorf("performance regressions vs %s:\n  %s\n"+
					"(an intentional regression re-baselines with -update)",
					out, strings.Join(regressions, "\n  "))
			}
			fmt.Printf("%s: accepting %d regressions (-update)\n", out, len(regressions))
		}
	}
	if check && !update {
		fmt.Printf("%s: all %d baseline benchmarks still exist\n", out, len(after))
		return nil
	}
	t.After = after

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep "->" in notes readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(&t); err != nil {
		return err
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("updated %s: %d after-benchmarks\n", out, len(after))
	return nil
}

// missingBaselines returns every benchmark named in the trajectory's before
// or after maps that matches the -bench regexp but is absent from the new
// results — i.e. baselines the current run should have reproduced and
// didn't. Baseline entries outside the regexp are someone else's run
// (a trajectory can aggregate several `make bench-*` invocations).
func missingBaselines(t *trajectory, after map[string]measurement, bench string) []string {
	re, err := regexp.Compile(bench)
	if err != nil {
		return nil // go test would have rejected it already
	}
	seen := map[string]bool{}
	var missing []string
	for _, baseline := range []map[string]measurement{t.Before, t.After} {
		for name := range baseline {
			// Sub-benchmark regexps match per path element, like go test.
			if _, ok := after[name]; !ok && !seen[name] && re.MatchString(strings.SplitN(name, "/", 2)[0]) {
				seen[name] = true
				missing = append(missing, name)
			}
		}
	}
	sort.Strings(missing)
	return missing
}

// allocSlack is the absolute allocs/op headroom added on top of the
// percentage threshold, so one stray allocation against a single-digit
// baseline doesn't read as a blown budget.
const allocSlack = 2

// findRegressions compares the fresh measurements against the committed
// baseline and describes every one that exceeds the thresholds. Benchmarks
// with no baseline entry (new this change) pass; missing-baseline detection
// is missingBaselines' job.
func findRegressions(base, after map[string]measurement, pct, apct float64) []string {
	names := make([]string, 0, len(after))
	for name := range after {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var regressions []string
	for _, name := range names {
		b, n := base[name], after[name]
		for _, t := range []struct {
			unit     string
			old, new float64
		}{{"ns/op", b.NsOp, n.NsOp}, {"ns/event", b.NsEvent, n.NsEvent}, {"ns/term", b.NsTerm, n.NsTerm}} {
			if pct > 0 && t.old > 0 && t.new > t.old*(1+pct/100) {
				regressions = append(regressions, fmt.Sprintf("%s: %s %.1f -> %.1f (+%.1f%%, limit %g%%)",
					name, t.unit, t.old, t.new, 100*(t.new/t.old-1), pct))
			}
		}
		if apct > 0 && float64(n.AllocsOp) > float64(b.AllocsOp)*(1+apct/100)+allocSlack {
			regressions = append(regressions, fmt.Sprintf("%s: allocs/op %d -> %d (limit %g%% + %d)",
				name, b.AllocsOp, n.AllocsOp, apct, allocSlack))
		}
	}
	return regressions
}

// parse extracts every benchmark line of go test -benchmem output into res,
// one measurement per line, so -count repetitions accumulate per name.
func parse(out string, res map[string][]measurement) {
	start := 0
	for i := 0; i <= len(out); i++ {
		if i == len(out) || out[i] == '\n' {
			if m := benchLine.FindStringSubmatch(out[start:i]); m != nil {
				ns, _ := strconv.ParseFloat(m[2], 64)
				custom, _ := strconv.ParseFloat(m[3], 64)
				b, _ := strconv.ParseInt(m[5], 10, 64)
				a, _ := strconv.ParseInt(m[6], 10, 64)
				meas := measurement{NsOp: ns, BOp: b, AllocsOp: a}
				if m[4] == "term" {
					meas.NsTerm = custom
				} else {
					meas.NsEvent = custom
				}
				res[m[1]] = append(res[m[1]], meas)
			}
			start = i + 1
		}
	}
}

// fold reduces each benchmark's repeated measurements to one: the median
// ns/op, ns/event and ns/term, and the largest B/op and allocs/op.
func fold(runs map[string][]measurement) map[string]measurement {
	res := make(map[string]measurement, len(runs))
	for name, ms := range runs {
		f := measurement{
			NsOp:    median(ms, func(m measurement) float64 { return m.NsOp }),
			NsEvent: median(ms, func(m measurement) float64 { return m.NsEvent }),
			NsTerm:  median(ms, func(m measurement) float64 { return m.NsTerm }),
		}
		for _, m := range ms {
			f.BOp = max(f.BOp, m.BOp)
			f.AllocsOp = max(f.AllocsOp, m.AllocsOp)
		}
		res[name] = f
	}
	return res
}

// median returns the median of field over ms: the middle value, or the
// mean of the middle two for an even count.
func median(ms []measurement, field func(measurement) float64) float64 {
	v := make([]float64, len(ms))
	for i, m := range ms {
		v[i] = field(m)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
