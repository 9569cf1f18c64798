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

func TestServiceRequestDecoding(t *testing.T) {
	ws, _ := newTestWorkspace(t, model.Example2(), AlgoSADS)
	svc := NewService(ws)
	oversized := `{"algo": "` + strings.Repeat("x", maxRequestBytes) + `"}`
	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"empty analyze body", "/v1/analyze", "", http.StatusOK},
		{"truncated analyze body", "/v1/analyze", "{", http.StatusBadRequest},
		{"oversized analyze body", "/v1/analyze", oversized, http.StatusRequestEntityTooLarge},
		{"empty delta body", "/v1/delta", "", http.StatusBadRequest},
		{"truncated delta body", "/v1/delta", `{"remove": [`, http.StatusBadRequest},
		{"oversized delta body", "/v1/delta", oversized, http.StatusRequestEntityTooLarge},
	} {
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
}

// clusterSystem merges two independent generated workloads, each on its
// own pair of processors, with task names prefixed "A/" and "B/". No chain
// crosses clusters, so a task's bound never depends on the other cluster.
func clusterSystem(t *testing.T) *model.System {
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
