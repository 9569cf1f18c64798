package admission

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/obs"
	"rtsync/internal/workload"
)

func testSystem(t *testing.T, seed int64) *model.System {
	t.Helper()
	cfg := workload.DefaultConfig(5, 0.7)
	cfg.Seed = seed
	s, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestWorkspace(t *testing.T, sys *model.System, algo string) (*Workspace, *obs.AnalysisStats) {
	t.Helper()
	st := obs.NewAnalysisStats()
	ws, err := NewWorkspace(sys, Config{Algo: algo, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	return ws, st
}

// batchVerdict computes the reference verdict the way rtanalyze would: a
// fresh full analysis of the whole system.
func batchVerdict(t *testing.T, sys *model.System, algo string) []bool {
	t.Helper()
	opts := analysis.DefaultOptions()
	var res *analysis.Result
	var err error
	switch algo {
	case AlgoSAPM:
		res, err = analysis.AnalyzePM(sys, opts)
	case AlgoSADS:
		res, err = analysis.AnalyzeDS(sys, opts)
	default:
		t.Fatalf("unsupported reference algo %s", algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, len(sys.Tasks))
	for i := range sys.Tasks {
		out[i] = res.Schedulable(sys, i)
	}
	return out
}

func TestWorkspaceDeltaMatchesBatch(t *testing.T) {
	for _, algo := range []string{AlgoSADS, AlgoSAPM} {
		t.Run(algo, func(t *testing.T) {
			sys := testSystem(t, 42)
			ws, st := newTestWorkspace(t, sys, algo)

			// Modify task 0: shrink its first subtask's exec.
			mod := sys.Tasks[0]
			mod.Subtasks = append([]model.Subtask(nil), mod.Subtasks...)
			mod.Subtasks[0].Exec++
			v, err := ws.ApplyDelta(Delta{Modify: []model.Task{mod}, Commit: true})
			if err != nil {
				t.Fatal(err)
			}
			if v.Path != "incremental" {
				t.Errorf("modify path = %q, want incremental", v.Path)
			}
			next := sys.Clone()
			next.Tasks[0] = mod
			want := batchVerdict(t, next, algo)
			for i, tv := range v.Tasks {
				if tv.Schedulable != want[i] {
					t.Errorf("task %s: service says %v, batch says %v", tv.Name, tv.Schedulable, want[i])
				}
			}
			if v.Committed != v.Schedulable {
				t.Errorf("committed = %v with schedulable = %v", v.Committed, v.Schedulable)
			}
			if st.Snapshot().DeltaAnalyses != 1 {
				t.Errorf("delta analyses = %d, want 1", st.Snapshot().DeltaAnalyses)
			}
		})
	}
}

func TestWorkspaceRemoveAddRoundtrip(t *testing.T) {
	sys := testSystem(t, 7)
	ws, st := newTestWorkspace(t, sys, AlgoSADS)
	name := sys.Tasks[len(sys.Tasks)-1].Name
	removed := sys.Tasks[len(sys.Tasks)-1]

	v, err := ws.ApplyDelta(Delta{Remove: []string{name}, Commit: true, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Path != "incremental" {
		t.Errorf("remove path = %q, want incremental", v.Path)
	}
	if len(v.Tasks) != len(sys.Tasks)-1 {
		t.Errorf("verdict lists %d tasks, want %d", len(v.Tasks), len(sys.Tasks)-1)
	}
	if !v.Committed {
		t.Fatal("removal of a schedulable system's task was not committed")
	}

	// Re-adding the same task restores the original digest: the answer
	// must come straight from the cache (the prime analysis stored it).
	v2, err := ws.ApplyDelta(Delta{Add: []model.Task{removed}, Commit: true, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Path != "cache" {
		t.Errorf("undo path = %q, want cache", v2.Path)
	}
	want := batchVerdict(t, sys, AlgoSADS)
	for i, tv := range v2.Tasks {
		if tv.Schedulable != want[i] {
			t.Errorf("task %s after undo: %v, batch %v", tv.Name, tv.Schedulable, want[i])
		}
	}
	if hits := st.CacheHits(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

func TestWorkspaceRejectsUnschedulable(t *testing.T) {
	sys := testSystem(t, 13)
	ws, _ := newTestWorkspace(t, sys, AlgoSADS)
	// A task that swamps processor 0 cannot be admitted.
	hog := model.Task{
		Name:     "hog",
		Period:   100,
		Deadline: 100,
		Subtasks: []model.Subtask{{Proc: 0, Exec: 99, Priority: 1}},
	}
	v, err := ws.ApplyDelta(Delta{Add: []model.Task{hog}, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Schedulable {
		t.Fatal("a saturating task was admitted as schedulable")
	}
	if v.Committed {
		t.Fatal("an unschedulable delta was committed")
	}
	// The committed system must be untouched.
	if got := len(ws.System().Tasks); got != len(sys.Tasks) {
		t.Errorf("committed system has %d tasks after rejection, want %d", got, len(sys.Tasks))
	}
}

func TestWorkspaceDeltaErrors(t *testing.T) {
	ws, _ := newTestWorkspace(t, testSystem(t, 3), AlgoSADS)
	for name, d := range map[string]Delta{
		"remove-missing": {Remove: []string{"no-such-task"}},
		"modify-missing": {Modify: []model.Task{{Name: "ghost", Period: 10, Deadline: 10,
			Subtasks: []model.Subtask{{Proc: 0, Exec: 1}}}}},
		"add-duplicate": {Add: []model.Task{{Name: ws.System().Tasks[0].Name, Period: 10, Deadline: 10,
			Subtasks: []model.Subtask{{Proc: 0, Exec: 1}}}}},
		"add-invalid": {Add: []model.Task{{Name: "bad", Period: -1, Deadline: 10,
			Subtasks: []model.Subtask{{Proc: 0, Exec: 1}}}}},
		"bad-algo": {Algo: "edf"},
	} {
		if _, err := ws.ApplyDelta(d); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestServiceHTTP(t *testing.T) {
	sys := model.Example2()
	ws, _ := newTestWorkspace(t, sys, AlgoSADS)
	srv := httptest.NewServer(NewService(ws))
	defer srv.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		return resp, buf.Bytes()
	}

	resp, body := post("/v1/analyze", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/analyze: %s: %s", resp.Status, body)
	}
	var v Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("analyze response: %v", err)
	}
	if v.Algo != "SA/DS" || len(v.Tasks) != len(sys.Tasks) {
		t.Errorf("analyze verdict = %+v", v)
	}

	resp, body = post("/v1/delta", `{"remove": ["T3"], "commit": true, "force": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/delta: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Committed || len(v.Tasks) != len(sys.Tasks)-1 {
		t.Errorf("delta verdict = %+v", v)
	}

	resp, body = post("/v1/delta", `{"remove": ["nope"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad delta: %s (want 400): %s", resp.Status, body)
	}

	resp, err := http.Get(srv.URL + "/v1/system")
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.ReadJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/v1/system did not round-trip: %v", err)
	}
	if len(got.Tasks) != len(sys.Tasks)-1 {
		t.Errorf("served system has %d tasks, want %d", len(got.Tasks), len(sys.Tasks)-1)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(buf.String(), "rtsync_analysis_cache_misses_total") {
		t.Error("/metrics missing analysis counters")
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %s", resp.Status)
	}
}

// outOfRangeDeltas returns delta bodies naming processors a workspace of
// fewer than five processors does not have; the modify body moves the
// existing task named task onto processor 5. They must be rejected by
// validation, not crash the dirty-processor bookkeeping that precedes an
// incremental re-analysis.
func outOfRangeDeltas(task string) []struct{ name, body string } {
	return []struct{ name, body string }{
		{"add on processor 99", `{"add":[{"name":"X","period":100,"deadline":100,"subtasks":[{"proc":99,"exec":1,"priority":1}]}]}`},
		{"add on processor -1", `{"add":[{"name":"X","period":100,"deadline":100,"subtasks":[{"proc":-1,"exec":1,"priority":1}]}]}`},
		{"modify onto processor 5", `{"modify":[{"name":"` + task +
			`","period":4,"deadline":4,"subtasks":[{"proc":5,"exec":2,"priority":2}]}]}`},
	}
}

func TestServiceRequestDecoding(t *testing.T) {
	ws, _ := newTestWorkspace(t, model.Example2(), AlgoSADS)
	svc := NewService(ws)
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.Bytes()
	}
	before := get("/v1/system")
	oversized := `{"algo": "` + strings.Repeat("x", maxRequestBytes) + `"}`
	type request struct {
		name, path, body string
		want             int
	}
	requests := []request{
		{"empty analyze body", "/v1/analyze", "", http.StatusOK},
		{"truncated analyze body", "/v1/analyze", "{", http.StatusBadRequest},
		{"oversized analyze body", "/v1/analyze", oversized, http.StatusRequestEntityTooLarge},
		{"empty delta body", "/v1/delta", "", http.StatusBadRequest},
		{"truncated delta body", "/v1/delta", `{"remove": [`, http.StatusBadRequest},
		{"oversized delta body", "/v1/delta", oversized, http.StatusRequestEntityTooLarge},
	}
	for _, h := range outOfRangeDeltas("T1") {
		requests = append(requests, request{h.name, "/v1/delta", h.body, http.StatusBadRequest})
	}
	for _, c := range requests {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.want, rec.Body.Bytes())
		}
		if c.want == http.StatusOK {
			var v Verdict
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || len(v.Tasks) != 3 {
				t.Errorf("%s: verdict %s (%v)", c.name, rec.Body.Bytes(), err)
			}
		}
	}
	if after := get("/v1/system"); !bytes.Equal(before, after) {
		t.Errorf("rejected requests changed the committed system:\nbefore: %s\nafter:  %s", before, after)
	}
}

// clusterSystem merges two independent generated workloads, each on its
// own pair of processors, with task names prefixed "A/" and "B/". No chain
// crosses clusters, so a task's bound never depends on the other cluster.
func clusterSystem(t testing.TB) *model.System {
	t.Helper()
	merged := &model.System{}
	for c, prefix := range []string{"A/", "B/"} {
		cfg := workload.DefaultConfig(2, 0.5)
		cfg.Processors = 2
		cfg.Tasks = 4
		cfg.Seed = 101 + int64(c)
		sys, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		off := len(merged.Procs)
		for _, p := range sys.Procs {
			p.Name = prefix + p.Name
			merged.Procs = append(merged.Procs, p)
		}
		for _, task := range sys.Tasks {
			task.Name = prefix + task.Name
			task.Subtasks = append([]model.Subtask(nil), task.Subtasks...)
			for i := range task.Subtasks {
				task.Subtasks[i].Proc += off
			}
			merged.Tasks = append(merged.Tasks, task)
		}
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	return merged
}

// clientScript is one client's request sequence, touching only the tasks
// whose names carry its prefix: probes, repeated probes (cache), forced
// commits, a removal and its undo, under several algorithms.
func clientScript(sys *model.System, prefix string) []Delta {
	var own []model.Task
	for _, task := range sys.Tasks {
		if strings.HasPrefix(task.Name, prefix) {
			own = append(own, task)
		}
	}
	bump := func(task model.Task, by model.Duration) model.Task {
		task.Subtasks = append([]model.Subtask(nil), task.Subtasks...)
		task.Subtasks[0].Exec += by
		return task
	}
	var script []Delta
	for k, algo := range []string{AlgoSADS, AlgoSAPM, AlgoHolistic, AlgoSADS} {
		task := own[k%len(own)]
		probe := Delta{Modify: []model.Task{bump(task, 1)}, Algo: algo}
		script = append(script, probe, probe,
			Delta{Modify: []model.Task{bump(task, 2)}, Algo: algo, Commit: true, Force: true},
			Delta{Remove: []string{own[(k+1)%len(own)].Name}, Algo: algo, Commit: true, Force: true},
			Delta{Add: []model.Task{own[(k+1)%len(own)]}, Algo: algo, Commit: true, Force: true},
		)
	}
	return script
}

// ownVerdicts posts a script to srv and returns, per request, the task
// verdicts of the tasks carrying prefix.
func ownVerdicts(t *testing.T, srv *httptest.Server, prefix string, script []Delta) [][]TaskVerdict {
	t.Helper()
	out := make([][]TaskVerdict, 0, len(script))
	for k, d := range script {
		body, err := json.Marshal(d)
		if err != nil {
			t.Error(err)
			return nil
		}
		resp, err := http.Post(srv.URL+"/v1/delta", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return nil
		}
		var v Verdict
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s request %d: %s (%v)", prefix, k, resp.Status, err)
			return nil
		}
		var own []TaskVerdict
		for _, tv := range v.Tasks {
			if strings.HasPrefix(tv.Name, prefix) {
				own = append(own, tv)
			}
		}
		out = append(out, own)
	}
	return out
}

// TestServiceConcurrentClients runs two clients concurrently against one
// service, each on its own cluster's tasks, and checks that every answer
// about a client's own tasks equals a sequential replay of the same
// scripts. Under -race it also covers the workspace's locking.
func TestServiceConcurrentClients(t *testing.T) {
	sys := clusterSystem(t)
	prefixes := []string{"A/", "B/"}
	scripts := [][]Delta{clientScript(sys, "A/"), clientScript(sys, "B/")}

	seqWS, _ := newTestWorkspace(t, sys, AlgoSADS)
	seqSrv := httptest.NewServer(NewService(seqWS))
	defer seqSrv.Close()
	want := make([][][]TaskVerdict, len(prefixes))
	for c, prefix := range prefixes {
		want[c] = ownVerdicts(t, seqSrv, prefix, scripts[c])
	}

	ws, _ := newTestWorkspace(t, sys, AlgoSADS)
	srv := httptest.NewServer(NewService(ws))
	defer srv.Close()
	got := make([][][]TaskVerdict, len(prefixes))
	var wg sync.WaitGroup
	for c, prefix := range prefixes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c] = ownVerdicts(t, srv, prefix, scripts[c])
		}()
	}
	wg.Wait()
	for c, prefix := range prefixes {
		if !reflect.DeepEqual(got[c], want[c]) {
			t.Errorf("client %s: concurrent verdicts differ from the sequential replay\nconcurrent: %+v\nsequential: %+v",
				prefix, got[c], want[c])
		}
	}
}

// fuzzDeltaSeeds is FuzzApplyDelta's seed corpus over clusterSystem: the
// out-of-range bodies; a valid delta that modifies one task twice, first
// onto a missing processor (only the last shape is validated, so the
// first must never reach the dirty-processor bookkeeping); and the
// add/modify/remove/commit shapes the tests above drive, under every
// algorithm.
func fuzzDeltaSeeds(t testing.TB, sys *model.System) [][]byte {
	var seeds [][]byte
	for _, h := range outOfRangeDeltas(sys.Tasks[0].Name) {
		seeds = append(seeds, []byte(h.body))
	}
	twice := sys.Tasks[0]
	offSystem := twice
	offSystem.Subtasks = []model.Subtask{{Proc: 5, Exec: 1, Priority: 1}}
	last := sys.Tasks[len(sys.Tasks)-1]
	hog := model.Task{Name: "hog", Period: 100, Deadline: 100,
		Subtasks: []model.Subtask{{Proc: 0, Exec: 99, Priority: 1}}}
	deltas := append(clientScript(sys, "A/"),
		Delta{Modify: []model.Task{offSystem, twice}},
		Delta{Remove: []string{last.Name}, Add: []model.Task{last}, Commit: true},
		Delta{Add: []model.Task{hog}, Commit: true},
		Delta{Remove: []string{"no-such-task"}},
		Delta{Add: []model.Task{{Name: "bad", Period: -1, Deadline: 10,
			Subtasks: []model.Subtask{{Proc: 0, Exec: 1}}}}},
		Delta{Algo: AlgoMPCP},
		Delta{Algo: AlgoDPCP, Commit: true},
	)
	for _, d := range deltas {
		body, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	return seeds
}

// fuzzable bounds a decoded delta so one fuzz execution stays in the
// milliseconds: a few tasks of a few subtasks, with times no larger than
// clusterSystem's own. Out-of-range processors, negative or zero times and
// unknown names all stay in play.
func fuzzable(d Delta) bool {
	tasks := append(append([]model.Task(nil), d.Add...), d.Modify...)
	if len(tasks) > 4 || len(d.Remove) > 8 {
		return false
	}
	const maxTime = 1 << 24
	for _, task := range tasks {
		if len(task.Subtasks) > 4 || task.Period > maxTime || task.Deadline > maxTime || task.Phase > maxTime {
			return false
		}
		for _, st := range task.Subtasks {
			if st.Exec > maxTime || len(st.Segments) > 4 || len(st.Locks) > 4 {
				return false
			}
		}
	}
	return true
}

// referenceVerdict is what rtanalyze reports for sys under algo: a cold,
// full analysis through the package-level entry point.
func referenceVerdict(t *testing.T, sys *model.System, algo string) *Verdict {
	t.Helper()
	opts := analysis.DefaultOptions()
	var res *analysis.Result
	var err error
	switch algo {
	case AlgoSAPM:
		res, err = analysis.AnalyzePM(sys, opts)
	case AlgoSADS:
		res, err = analysis.AnalyzeDS(sys, opts)
	case AlgoHolistic:
		res, err = analysis.AnalyzeDSHolistic(sys, opts)
	case AlgoMPCP:
		res, err = analysis.AnalyzeMPCP(sys, opts)
	case AlgoDPCP:
		res, err = analysis.AnalyzeDPCP(sys, opts)
	default:
		t.Fatalf("unknown algo %q", algo)
	}
	if err != nil {
		t.Fatalf("reference %s analysis of an accepted delta failed: %v", algo, err)
	}
	var w Workspace
	return w.verdict(sys, res, "full")
}

// FuzzApplyDelta drives Workspace.ApplyDelta with arbitrary delta bodies
// against a fresh two-cluster workspace. No body may panic. A rejected
// delta must leave the committed system byte-identical. An accepted
// delta's verdict — served by the incremental or full path, and again from
// the cache when the delta is committed a second time — must equal a
// fresh full analysis of the changed system under the same algorithm,
// task by task and bound by bound.
func FuzzApplyDelta(f *testing.F) {
	sys := clusterSystem(f)
	for _, body := range fuzzDeltaSeeds(f, sys) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var d Delta
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&d) != nil || !fuzzable(d) {
			return
		}
		ws, err := NewWorkspace(sys, Config{})
		if err != nil {
			t.Fatal(err)
		}
		committed := func() string {
			var buf bytes.Buffer
			if err := ws.System().WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		before := committed()
		v, err := ws.ApplyDelta(d)
		if err != nil {
			if committed() != before {
				t.Fatalf("rejected delta (%v) changed the committed system", err)
			}
			return
		}
		if want := d.Commit && (v.Schedulable || d.Force); v.Committed != want {
			t.Fatalf("committed = %v, want %v (commit=%v force=%v schedulable=%v)",
				v.Committed, want, d.Commit, d.Force, v.Schedulable)
		}
		if !v.Committed {
			if committed() != before {
				t.Fatal("uncommitted delta changed the committed system")
			}
			// Adopt the change to read the changed system back; its
			// digest is cached now, so this answer comes from the cache.
			forced := d
			forced.Commit, forced.Force = true, true
			again, err := ws.ApplyDelta(forced)
			if err != nil {
				t.Fatalf("accepted delta rejected when forced: %v", err)
			}
			if again.Path != "cache" || !again.Committed {
				t.Fatalf("forced commit: path %q committed %v, want a cached commit", again.Path, again.Committed)
			}
			if !reflect.DeepEqual(again.Tasks, v.Tasks) {
				t.Fatalf("cached verdict differs from the first answer\ncache: %+v\nfirst: %+v", again.Tasks, v.Tasks)
			}
		}
		algo := d.Algo
		if algo == "" {
			algo = AlgoSADS
		}
		want := referenceVerdict(t, ws.System(), algo)
		if v.Algo != want.Algo || v.Schedulable != want.Schedulable || !reflect.DeepEqual(v.Tasks, want.Tasks) {
			t.Fatalf("%s path verdict differs from a full %s analysis\ngot:  %+v\nwant: %+v",
				v.Path, algo, v, want)
		}
	})
}
