package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"rtsync/internal/admission"
	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/workload"
)

// The admission topology: independent 2-processor clusters (no task chain
// leaves its cluster), half of them owned by each client. Ownership is
// disjoint, so a client's tasks' bounds depend only on that client's own
// requests, however the two clients interleave.
const (
	clusters       = 8
	clientClusters = clusters / 2
)

// clusterConfig is one cluster's generated workload: 6 tasks of 3 subtasks
// at 60% utilization on 2 processors. The shape is chosen, not observed:
// 8 clusters of 6 tasks make the 48-task topology, 3 subtasks per task
// make every chain cross both processors and back, so a change on one
// processor dirties the other, and U = 0.6 is the highest step of the
// paper's U grid at which a generated cluster is often SA/DS-schedulable,
// as admission needs its starting point to be (about half are at 0.6, one
// in twenty at 0.7).
func clusterConfig() workload.Config {
	c := workload.DefaultConfig(3, 0.6)
	c.Processors, c.Tasks = 2, 6
	return c
}

// request is one scripted admission call and the answer it must get.
type request struct {
	kind   string            // probe, repeat, commit or full (a holistic or MPCP probe)
	body   []byte            // JSON admission.Delta
	commit bool              // the verdict must report the change committed
	want   map[string]string // EER of every task the client owns, after the delta
}

// verify checks a verdict against the request: each of the client's tasks
// has its expected bound, and the commit went as scripted. Tasks of the
// other client are not checked (their state depends on the interleaving).
func (r *request) verify(v *admission.Verdict) error {
	seen := 0
	for _, t := range v.Tasks {
		want, ok := r.want[t.Name]
		if !ok {
			continue
		}
		if t.EER != want {
			return fmt.Errorf("%s request: task %s bound %s, want %s", r.kind, t.Name, t.EER, want)
		}
		seen++
	}
	if seen != len(r.want) {
		return fmt.Errorf("%s request: verdict covers %d of the client's %d tasks", r.kind, seen, len(r.want))
	}
	if v.Committed != r.commit {
		return fmt.Errorf("%s request: committed=%v, want %v", r.kind, v.Committed, r.commit)
	}
	return nil
}

// admissionInputs is everything the admission workload sends.
type admissionInputs struct {
	sys     *model.System
	scripts [2][]request
}

// genAdmission builds the topology and both clients' scripts from seed.
// Every cluster starts SA/DS-schedulable and every scripted commit keeps
// its client's tasks schedulable, so no commit is ever refused whatever
// the other client has committed.
func genAdmission(seed int64, scriptLen int) (*admissionInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	opts := analysis.DefaultOptions()
	sys := &model.System{}
	var owned [2][]model.Task
	for k := 0; k < clusters; k++ {
		cl, err := schedulableCluster(rng, opts)
		if err != nil {
			return nil, err
		}
		off := len(sys.Procs)
		for _, p := range cl.Procs {
			p.Name = fmt.Sprintf("S%d/%s", k, p.Name)
			sys.Procs = append(sys.Procs, p)
		}
		for _, t := range cl.Tasks {
			t.Name = fmt.Sprintf("S%d/%s", k, t.Name)
			t.Subtasks = append([]model.Subtask(nil), t.Subtasks...)
			for i := range t.Subtasks {
				t.Subtasks[i].Proc += off
			}
			sys.Tasks = append(sys.Tasks, t)
			owned[k/clientClusters] = append(owned[k/clientClusters], t)
		}
	}
	in := &admissionInputs{sys: sys}
	for c := range in.scripts {
		g := &scriptGen{
			rng:    rand.New(rand.NewSource(rng.Int63())),
			client: c,
			procs:  sys.Procs,
			own:    owned[c],
			opts:   opts,
		}
		var err error
		if in.scripts[c], err = g.script(scriptLen); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// schedulableCluster draws clusters until one is SA/DS-schedulable.
func schedulableCluster(rng *rand.Rand, opts analysis.Options) (*model.System, error) {
	for attempt := 0; attempt < 1000; attempt++ {
		cfg := clusterConfig()
		cfg.Seed = rng.Int63()
		sys, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		res, err := analysis.AnalyzeDS(sys, opts)
		if err != nil {
			return nil, err
		}
		if res.AllSchedulable(sys) {
			return sys, nil
		}
	}
	return nil, errors.New("no schedulable cluster in 1000 draws")
}

// scriptGen writes one client's script, tracking the client's committed
// tasks so each request's expected answer comes from a full analysis of
// exactly those tasks.
type scriptGen struct {
	rng    *rand.Rand
	client int
	procs  []model.Processor
	own    []model.Task
	opts   analysis.Options
	an     *analysis.Analyzer
	added  int    // tasks added so far, for unique names
	extra  string // the added task not yet removed, if any
	fulls  int
}

// script returns about n requests, in blocks of four: a fresh probe, its
// exact repeat right after it, a commit and a full-analysis probe (holistic
// and MPCP in turn), the block's order drawn from the seed. No rtsyncd
// traffic has been recorded to take proportions from, so every request
// kind, and with it every answer path, gets an equal share: enough samples
// for a steady median of each. The script ends with the client's tasks
// back in their initial state, so it can be replayed in a loop.
func (g *scriptGen) script(n int) ([]request, error) {
	var out []request
	for len(out) < n {
		block := []string{"probe", "commit", "full"}
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			var req request
			var err error
			switch kind {
			case "probe":
				if req, err = g.probe(""); err == nil {
					out = append(out, req)
					req.kind = "repeat"
				}
			case "commit":
				req, err = g.commit()
			case "full":
				algo := admission.AlgoHolistic
				if g.fulls%2 == 1 {
					algo = admission.AlgoMPCP
				}
				g.fulls++
				req, err = g.probe(algo)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, req)
		}
	}
	if g.extra != "" {
		req, err := g.commit()
		if err != nil {
			return nil, err
		}
		out = append(out, req)
	}
	return out, nil
}

// probe asks, without committing, whether one of the client's tasks may
// change one subtask's execution time by a factor in [0.5, 1.5).
func (g *scriptGen) probe(algo string) (request, error) {
	next := append([]model.Task(nil), g.own...)
	i := g.rng.Intn(len(next))
	t := next[i]
	t.Subtasks = append([]model.Subtask(nil), t.Subtasks...)
	st := &t.Subtasks[g.rng.Intn(len(t.Subtasks))]
	st.Exec = model.Duration(math.Max(1, math.Round(float64(st.Exec)*(0.5+g.rng.Float64()))))
	next[i] = t
	kind := "probe"
	if algo != "" {
		kind = "full"
	}
	want, _, err := g.expect(next, algo)
	if err != nil {
		return request{}, err
	}
	return newRequest(kind, admission.Delta{Modify: []model.Task{t}, Algo: algo}, false, want)
}

// commit adds a low-priority task to one of the client's clusters, or
// removes the one added before.
func (g *scriptGen) commit() (request, error) {
	if g.extra != "" {
		var next []model.Task
		for _, t := range g.own {
			if t.Name != g.extra {
				next = append(next, t)
			}
		}
		want, _, err := g.expect(next, "")
		if err != nil {
			return request{}, err
		}
		d := admission.Delta{Remove: []string{g.extra}, Commit: true}
		g.own, g.extra = next, ""
		return newRequest("commit", d, true, want)
	}
	p0 := 2 * (g.client*clientClusters + g.rng.Intn(clientClusters))
	var maxPeriod model.Duration
	lowest := map[int]model.Priority{p0: 1 << 30, p0 + 1: 1 << 30}
	for _, t := range g.own {
		if t.Period > maxPeriod {
			maxPeriod = t.Period
		}
		for _, st := range t.Subtasks {
			if lo, ok := lowest[st.Proc]; ok && st.Priority < lo {
				lowest[st.Proc] = st.Priority
			}
		}
	}
	// Below every priority on its processors, so it delays none of the
	// cluster's tasks; a long period and a small execution time leave it
	// schedulable (halved until it is).
	t := model.Task{
		Name:     fmt.Sprintf("C%d/X%d", g.client, g.added),
		Period:   2 * maxPeriod,
		Deadline: 2 * maxPeriod,
		Subtasks: []model.Subtask{
			{Proc: p0, Priority: lowest[p0] - 1},
			{Proc: p0 + 1, Priority: lowest[p0+1] - 1},
		},
	}
	g.added++
	for exec := maxPeriod / 25; exec >= 1; exec /= 2 {
		t.Subtasks[0].Exec, t.Subtasks[1].Exec = exec, exec
		next := append(append([]model.Task(nil), g.own...), t)
		want, ok, err := g.expect(next, "")
		if err != nil {
			return request{}, err
		}
		if ok {
			g.own, g.extra = next, t.Name
			return newRequest("commit", admission.Delta{Add: []model.Task{t}, Commit: true}, true, want)
		}
	}
	return request{}, fmt.Errorf("client %d: no schedulable task to add", g.client)
}

// expect analyzes the client's tasks alone (on the full processor list) and
// returns each task's bound and whether all are schedulable.
func (g *scriptGen) expect(tasks []model.Task, algo string) (map[string]string, bool, error) {
	sys := &model.System{Procs: g.procs, Tasks: tasks}
	var err error
	if g.an == nil {
		g.an, err = analysis.NewAnalyzer(sys, g.opts)
	} else {
		err = g.an.Reset(sys, g.opts)
	}
	if err != nil {
		return nil, false, err
	}
	var res *analysis.Result
	switch algo {
	case "", admission.AlgoSADS:
		res = g.an.AnalyzeDS()
	case admission.AlgoHolistic:
		res = g.an.AnalyzeHolistic()
	case admission.AlgoMPCP:
		res = g.an.AnalyzeMPCP()
	default:
		return nil, false, fmt.Errorf("unscripted algorithm %q", algo)
	}
	want := make(map[string]string, len(tasks))
	for i := range tasks {
		want[tasks[i].Name] = res.TaskEER[i].String()
	}
	return want, res.AllSchedulable(sys), nil
}

func newRequest(kind string, d admission.Delta, commit bool, want map[string]string) (request, error) {
	body, err := json.Marshal(d)
	return request{kind: kind, body: body, commit: commit, want: want}, err
}

// admissionE2E is the end-to-end run of the admission workload. Two
// servers run side by side: one using every CPU, loaded by both clients,
// and one at GOMAXPROCS=1, loaded by client 0 alone. Load alternates
// between them in short slices, each client picking up its script where
// its last slice on that server stopped, so a drift in machine speed
// reaches both settings alike. Set-up launches of fresh servers sit
// between the slices for the same reason.
func (b *bench) admissionE2E(res *result) error {
	in, err := genAdmission(b.seed, b.sz.scriptLen)
	if err != nil {
		return err
	}
	path, err := b.writeSystem(in.sys)
	if err != nil {
		return err
	}
	all, err := b.startServer(path, false)
	if err != nil {
		return err
	}
	defer all.stop()
	one, err := b.startServer(path, true)
	if err != nil {
		return err
	}
	defer one.stop()

	setup := []float64{all.ready.Seconds()}
	two, single := &load{}, &load{}
	allPos, onePos := make([]int, 2), make([]int, 1)
	slice := time.Duration(b.seconds / float64(2*b.sz.loadSlices) * float64(time.Second))
	for i := 0; i < b.sz.loadSlices; i++ {
		for k := 0; k < 2; k++ {
			if (k == 0) == (i%2 == 0) {
				b.loadSlice(res, all, in, allPos, slice, two)
			} else {
				b.loadSlice(res, one, in, onePos, slice, single)
			}
		}
		for j := 0; j < b.sz.setupLaunches; j++ {
			srv, err := b.startServer(path, false)
			if err != nil {
				return err
			}
			setup = append(setup, srv.ready.Seconds())
			if _, err := srv.stop(); err != nil {
				return err
			}
		}
	}
	rssKB, err := all.stop()
	if err != nil {
		return err
	}
	if _, err := one.stop(); err != nil {
		return err
	}
	res.set("units_per_s", float64(two.completed)/two.wall.Seconds())
	res.set("units_per_s_1w", float64(single.completed)/single.wall.Seconds())
	res.set("unit_p50_ms", median(two.latMS))
	res.set("unit_p99_ms", quantile(two.latMS, 0.99))
	res.set("setup_s", median(setup))
	res.set("rss_peak_mb", float64(rssKB)/1024)
	return nil
}

func (b *bench) writeSystem(sys *model.System) (string, error) {
	path := filepath.Join(b.work, "admission-system.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := sys.WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// load is the summed outcome of one setting's load slices.
type load struct {
	latMS     []float64
	completed int64
	wall      time.Duration
}

// loadSlice runs one closed-loop client per entry of pos against srv (each
// sends its next request only after the previous answer) for d, client c
// continuing its script at pos[c], and adds the outcome to ld. A request
// that fails or gets a wrong answer counts with the whole run's time as its
// latency, above any limit a run can measure.
func (b *bench) loadSlice(res *result, srv *server, in *admissionInputs, pos []int, d time.Duration, ld *load) {
	deadline := time.Now().Add(d)
	outs := make([]clientLoad, len(pos))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range pos {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = drive(srv.addr, in.scripts[c], pos[c], deadline, 0)
		}(c)
	}
	wg.Wait()
	ld.wall += time.Since(t0)
	failMS := b.seconds * 1e3
	for c, o := range outs {
		pos[c] = o.next
		for _, l := range o.latMS {
			if math.IsInf(l, 1) {
				l = failMS
			}
			ld.latMS = append(ld.latMS, l)
		}
		ld.completed += o.ok
		res.check(true, o.ok, "")
		if o.failed > 0 {
			res.check(false, o.failed, "admission client %d of %d (seed %d): %d requests failed, first: %s",
				c, len(pos), b.seed, o.failed, o.firstErr)
		}
	}
}

// clientLoad is one client's side of a load slice.
type clientLoad struct {
	latMS      []float64 // +Inf for failed requests
	ok, failed int64
	firstErr   string
	next       int // script position of the request to send next
}

// drive sends script (looping) from position start over one keep-alive
// connection, one request at a time, until deadline — or, when deadline is
// zero, exactly n requests. Answers are checked after the clock stops.
func drive(addr string, script []request, start int, deadline time.Time, n int) clientLoad {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	url := "http://" + addr + "/v1/delta"
	out := clientLoad{next: start}
	var buf bytes.Buffer
	for i := 0; (deadline.IsZero() && i < n) || (!deadline.IsZero() && time.Now().Before(deadline)); i++ {
		req := &script[out.next]
		out.next = (out.next + 1) % len(script)
		t0 := time.Now()
		status, err := post(cl, url, req.body, &buf)
		d := time.Since(t0)
		if err == nil {
			err = checkAnswer(req, status, buf.Bytes())
		}
		if err != nil {
			out.failed++
			out.latMS = append(out.latMS, math.Inf(1))
			if out.firstErr == "" {
				out.firstErr = err.Error()
			}
			continue
		}
		out.ok++
		out.latMS = append(out.latMS, float64(d)/float64(time.Millisecond))
	}
	return out
}

func post(cl *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func checkAnswer(req *request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s request: status %d: %s", req.kind, status, tail(body))
	}
	var v admission.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("%s request: decode verdict: %w", req.kind, err)
	}
	return req.verify(&v)
}

// server is one running rtsyncd.
type server struct {
	cmd   *exec.Cmd
	done  chan error // receives Wait's result
	addr  string
	ready time.Duration // launch until /healthz answered

	stopped bool
	err     error // how the stopped server exited, if not cleanly
}

// announce watches rtsyncd's standard error for the line giving its address.
type announce struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered; receives the address once
	sent bool
}

func (a *announce) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf.Write(p)
	if !a.sent {
		if _, rest, ok := strings.Cut(a.buf.String(), "admission API on http://"); ok {
			if addr, _, ok := strings.Cut(rest, "/"); ok {
				a.sent = true
				a.addr <- addr
			}
		}
	}
	return len(p), nil
}

func (a *announce) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return tail(a.buf.Bytes())
}

// startServer launches rtsyncd on the system file and waits until /healthz
// answers; ready is the time that took (the workspace's priming analysis
// included).
func (b *bench) startServer(path string, oneProc bool) (*server, error) {
	cmd := exec.Command(filepath.Join(b.bin, "rtsyncd"), "-listen", "127.0.0.1:0", "-algo", "sads", path)
	cmd.Env = os.Environ()
	if oneProc {
		cmd.Env = append(cmd.Env, "GOMAXPROCS=1")
	}
	ann := &announce{addr: make(chan string, 1)}
	cmd.Stderr = ann
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	select {
	case s.addr = <-ann.addr:
	case err := <-s.done:
		return nil, fmt.Errorf("rtsyncd exited before serving: %v: %s", err, ann)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("rtsyncd did not announce its address: %s", ann)
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}
	resp, err := hc.Get("http://" + s.addr + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("rtsyncd /healthz: %w", err)
	}
	s.ready = time.Since(t0)
	return s, nil
}

// stop terminates the server, waits for it, and returns its peak RSS in KiB.
// Calls after the first return the first one's outcome.
func (s *server) stop() (int64, error) {
	if !s.stopped {
		s.stopped = true
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			s.cmd.Process.Kill()
		}
		// rtsyncd starts serving just before it installs its SIGTERM
		// handler, so a server stopped right after /healthz answered may
		// die of the signal instead of shutting down; both are clean.
		err := <-s.done
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				err = nil
			}
		}
		if err != nil {
			s.err = fmt.Errorf("rtsyncd: %w", err)
		}
	}
	if s.err != nil {
		return 0, s.err
	}
	return maxRSS(s.cmd.ProcessState), nil
}
