package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rtsync/internal/record"
)

// sweepStudy is one kind of rtexperiments invocation: the -figure selector,
// the study tag its records carry, and its grid (passed explicitly, so the
// record count is known without the CLI's defaults).
type sweepStudy struct {
	study   string    // the records' study tag
	figure  string    // rtexperiments -figure value
	ns      []int     // -grid-n
	us      []float64 // -grid-u
	systems int       // systems per grid cell
}

// The paper's grid: N = 2..8 subtasks per task, U = 0.5..0.9.
var (
	paperNs = []int{2, 3, 4, 5, 6, 7, 8}
	paperUs = []float64{0.5, 0.6, 0.7, 0.8, 0.9}
)

// sweepStudies lists the invocations one round of a sweep workload makes.
//
// analysis-sweep keeps the paper's U axis but only N = 2 and 3. Analysis
// cost per system is heavy-tailed wherever N >= 4 meets U >= 0.8: single
// systems there take 0.1-2 s against a median of milliseconds, so a run's
// throughput would mostly count how many of those its seed drew.
// Resampling 200 measured systems per cell, a 10-second phase spreads by
// 12% over the N <= 4 grid and by under 2% over N <= 3. sim-sweep's
// per-system cost is light-tailed, so it keeps the whole 35-cell grid.
func (b *bench) sweepStudies() []sweepStudy {
	switch b.workload {
	case wlAnalysis:
		ns := []int{2, 3}
		return []sweepStudy{
			{study: "fig13", figure: "13", ns: ns, us: paperUs, systems: b.sz.analysisSystems},
			{study: "locking", figure: "locking", ns: ns, us: paperUs, systems: b.sz.analysisSystems},
		}
	case wlSim:
		return []sweepStudy{{study: "avgeer", figure: "14", ns: paperNs, us: paperUs, systems: b.sz.simSystems}}
	}
	return nil
}

// args are the rtexperiments flags that run the study with sweep seed seed.
func (s sweepStudy) args(seed int64) []string {
	var ns, us []string
	for _, n := range s.ns {
		ns = append(ns, strconv.Itoa(n))
	}
	for _, u := range s.us {
		us = append(us, strconv.FormatFloat(u, 'g', -1, 64))
	}
	return []string{"-figure", s.figure, "-systems", strconv.Itoa(s.systems), "-seed", strconv.FormatInt(seed, 10),
		"-grid-n", strings.Join(ns, ","), "-grid-u", strings.Join(us, ",")}
}

// units is the number of systems, and so of records, one invocation sweeps.
func (s sweepStudy) units() int { return s.systems * len(s.ns) * len(s.us) }

// sweepRun is one finished rtexperiments invocation.
type sweepRun struct {
	wall    time.Duration
	rssKB   int64
	digests digestPair
	unitMS  []float64 // each unit's generate+analyze+simulate time
	problem string    // why the record store is unusable; empty when fine
}

// sweepCLI runs one invocation, streaming its record store with per-unit
// timings, and digests its figure tables and (timing-free) store.
func (b *bench) sweepCLI(s sweepStudy, seed int64, oneWorker bool) (sweepRun, error) {
	store := filepath.Join(b.work, s.study+".jsonl")
	var env []string
	if oneWorker {
		env = []string{"GOMAXPROCS=1"}
	}
	p, err := b.runProc(env, "rtexperiments", append(s.args(seed), "-jsonl", store, "-record-timings")...)
	if err != nil {
		return sweepRun{}, err
	}
	run := sweepRun{wall: p.wall, rssKB: p.rssKB, digests: digestPair{Tables: sha(p.stdout)}}
	f, err := os.Open(store)
	if err != nil {
		return sweepRun{}, err
	}
	run.digests.Store, run.unitMS, err = normalizeStore(f)
	f.Close()
	if err != nil {
		run.problem = err.Error()
	}
	if want := s.units(); len(run.unitMS) != want && run.problem == "" {
		run.problem = fmt.Sprintf("store holds %d records, want %d", len(run.unitMS), want)
	}
	return run, os.Remove(store)
}

// normalizeStore verifies every record's content hash, takes out the
// per-unit timings, and digests the records re-encoded exactly as a store
// written without -record-timings. It returns that digest and the unit
// times in milliseconds.
func normalizeStore(r io.Reader) (string, []float64, error) {
	rd := record.NewReader(r)
	rd.Verify = true
	h := sha256.New()
	var (
		rec  record.CellRecord
		line []byte
		ms   []float64
	)
	for {
		ok, err := rd.Next(&rec)
		if err != nil {
			return "", ms, err
		}
		if !ok {
			return hex.EncodeToString(h.Sum(nil)), ms, nil
		}
		if rec.Timing == nil {
			return "", ms, fmt.Errorf("record %d has no timing", rec.Unit)
		}
		ms = append(ms, float64(rec.Timing.GenNS+rec.Timing.AnaNS+rec.Timing.SimNS)/1e6)
		rec.Timing = nil
		line = rec.AppendLine(line[:0])
		h.Write(line)
	}
}

// sweepPhase is one worker setting's share of a sweep run.
type sweepPhase struct {
	units  int
	wall   time.Duration // summed invocation wall time
	unitMS []float64
	rssMB  []float64
	runs   map[string]sweepRun // by "round/study"
}

func (ph *sweepPhase) add(round int, s sweepStudy, r sweepRun) {
	ph.runs[fmt.Sprintf("%d/%s", round, s.study)] = r
	ph.units += len(r.unitMS)
	ph.wall += r.wall
	ph.unitMS = append(ph.unitMS, r.unitMS...)
	ph.rssMB = append(ph.rssMB, float64(r.rssKB)/1024)
}

// setupSeeds is the first sub-seed of the set-up launches, far above any
// round's sub-seed.
const setupSeeds = 1 << 20

// sweepE2E is the end-to-end run of a sweep workload. Round r runs the
// workload's invocations with sub-seed r, once with every CPU as workers
// and once with one worker at GOMAXPROCS=1, alternating which goes first,
// so a drift in machine speed reaches both settings alike. Set-up launches
// are spread between the invocations for the same reason. Rounds repeat
// until the invocations' summed wall time reaches the run's time.
func (b *bench) sweepE2E(res *result) error {
	studies := b.sweepStudies()
	// Set-up is launch to first unit: a one-unit sweep of the first study.
	first := studies[0]
	first.ns, first.us, first.systems = []int{2}, []float64{0.5}, 1
	var setup []float64
	par := &sweepPhase{runs: map[string]sweepRun{}}
	one := &sweepPhase{runs: map[string]sweepRun{}}
	budget := time.Duration(b.seconds * float64(time.Second))
	for round := 0; round == 0 || par.wall+one.wall < budget; round++ {
		for k := 0; k < 2; k++ {
			oneWorker := (k == 0) == (round%2 == 1)
			ph := par
			if oneWorker {
				ph = one
			}
			for _, s := range studies {
				r, err := b.sweepCLI(s, subSeed(b.seed, round), oneWorker)
				if err != nil {
					return err
				}
				ph.add(round, s, r)
				for i := 0; i < b.sz.setupLaunches; i++ {
					// Each launch sweeps another system, so the median
					// is over many systems' costs, not one seed's draw.
					p, err := b.runProc(nil, "rtexperiments", first.args(subSeed(b.seed, setupSeeds+len(setup)))...)
					if err != nil {
						return err
					}
					setup = append(setup, p.wall.Seconds())
				}
			}
		}
	}
	b.checkPhase(res, par, one, "all workers")
	b.checkPhase(res, one, par, "one worker")

	res.set("units_per_s", float64(par.units)/par.wall.Seconds())
	res.set("units_per_s_1w", float64(one.units)/one.wall.Seconds())
	res.set("unit_p50_ms", median(par.unitMS))
	res.set("unit_p99_ms", quantile(par.unitMS, 0.99))
	res.set("setup_s", median(setup))
	res.set("rss_peak_mb", median(par.rssMB))
	return nil
}

// checkPhase checks each invocation of ph: its store must be sound, its
// digests must equal the other phase's run of the same round (worker count
// must not change a byte), and round 0 must match the digests pinned for
// this seed.
func (b *bench) checkPhase(res *result, ph, other *sweepPhase, label string) {
	for key, r := range ph.runs {
		n := int64(len(r.unitMS))
		if r.problem != "" {
			res.check(false, n, "%s %s (seed %d): %s", label, key, b.seed, r.problem)
			continue
		}
		if o, ok := other.runs[key]; ok && o.problem == "" && o.digests != r.digests {
			res.check(false, n, "%s %s (seed %d): output differs between worker counts", label, key, b.seed)
			continue
		}
		round, study, _ := strings.Cut(key, "/")
		if want, ok := b.pinned.lookup(b.workload, b.seed, study); ok && round == "0" && want != r.digests {
			res.check(false, n, "%s %s (seed %d): digests %+v, pinned %+v", label, key, b.seed, r.digests, want)
			continue
		}
		res.check(true, n, "")
	}
}

// digestPair are the SHA-256 digests of one invocation's rendered figure
// tables and of its record store.
type digestPair struct {
	Tables string `json:"tables"`
	Store  string `json:"store"`
}

// pinnedDigests holds round 0's digests as the pinning commit printed them:
// workload → seed → study → digests.
type pinnedDigests map[string]map[string]map[string]digestPair

func loadPinned(path string) (pinnedDigests, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pinnedDigests
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func (p pinnedDigests) lookup(workload string, seed int64, study string) (digestPair, bool) {
	d, ok := p[workload][strconv.FormatInt(seed, 10)][study]
	return d, ok
}

// pinDigests recomputes round 0's digests of both sweep workloads for the
// listed seeds ("1-32,1000003") and rewrites digests.json. Run it only on a
// commit whose outputs are known good.
func (b *bench) pinDigests(spec string) error {
	var seeds []int64
	for _, part := range strings.Split(spec, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return fmt.Errorf("-pin-digests %q: %w", spec, err)
		}
		z := a
		if isRange {
			if z, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return fmt.Errorf("-pin-digests %q: %w", spec, err)
			}
		}
		for s := a; s <= z; s++ {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		return errors.New("-pin-digests: no seeds")
	}
	out := pinnedDigests{}
	for _, wl := range []string{wlAnalysis, wlSim} {
		b.workload = wl
		out[wl] = map[string]map[string]digestPair{}
		for _, seed := range seeds {
			m := map[string]digestPair{}
			for _, s := range b.sweepStudies() {
				store := filepath.Join(b.work, "pin.jsonl")
				p, err := b.runProc(nil, "rtexperiments", append(s.args(subSeed(seed, 0)), "-jsonl", store)...)
				if err != nil {
					return err
				}
				data, err := os.ReadFile(store)
				if err != nil {
					return err
				}
				m[s.study] = digestPair{Tables: sha(p.stdout), Store: sha(data)}
			}
			out[wl][strconv.FormatInt(seed, 10)] = m
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.root, "perfbench", "digests.json"), append(data, '\n'), 0o644)
}
