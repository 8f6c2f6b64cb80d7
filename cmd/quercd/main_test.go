package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"querc"
	"querc/internal/core"
	"querc/internal/doc2vec"
)

func newTestServer(t *testing.T) (*server, *http.ServeMux) {
	t.Helper()
	registry, err := querc.NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := querc.NewService()
	svc.AddApplication("app1", 64, nil)
	s := &server{svc: svc, registry: registry}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/apps", s.listApps)
	mux.HandleFunc("GET /v1/models", s.listModels)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.HandleFunc("GET /v1/drift", s.driftStatus)
	mux.HandleFunc("GET /v1/sched", s.schedStatus)
	mux.HandleFunc("GET /v1/trace", s.traces)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("POST /v1/apps/{app}/queries", s.submitQuery)
	mux.HandleFunc("POST /v1/apps/{app}/queries:batch", s.submitBatch)
	mux.HandleFunc("POST /v1/apps/{app}/logs", s.ingestLogs)
	mux.HandleFunc("POST /v1/apps/{app}/retrain", s.retrain)
	return s, mux
}

func do(t *testing.T, mux *http.ServeMux, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	return rr
}

func TestSubmitAndLabelFlow(t *testing.T) {
	s, mux := newTestServer(t)

	// Train and register a tiny embedder.
	corpus := [][]string{}
	for i := 0; i < 30; i++ {
		corpus = append(corpus, []string{"select", "a", "from", "t"})
		corpus = append(corpus, []string{"delete", "from", "u"})
	}
	cfg := doc2vec.DefaultConfig()
	cfg.Dim = 8
	cfg.Epochs = 3
	cfg.MinCount = 1
	m, err := doc2vec.Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.registry.SaveDoc2Vec("tiny", m); err != nil {
		t.Fatal(err)
	}

	// Ingest labeled logs.
	var logs []*core.LabeledQuery
	for i := 0; i < 30; i++ {
		q := &core.LabeledQuery{SQL: "select a from t"}
		q.SetLabel("kind", "read")
		logs = append(logs, q)
		q2 := &core.LabeledQuery{SQL: "delete from u"}
		q2.SetLabel("kind", "write")
		logs = append(logs, q2)
	}
	body, _ := json.Marshal(logs)
	rr := do(t, mux, "POST", "/v1/apps/app1/logs", string(body))
	if rr.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rr.Code, rr.Body)
	}

	// Retrain a classifier against the registered embedder.
	rr = do(t, mux, "POST", "/v1/apps/app1/retrain", `{"label":"kind","embedder":"tiny"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("retrain: %d %s", rr.Code, rr.Body)
	}

	// Submit a query and read its predicted label.
	rr = do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select a from t"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body)
	}
	var labeled core.LabeledQuery
	if err := json.Unmarshal(rr.Body.Bytes(), &labeled); err != nil {
		t.Fatal(err)
	}
	if labeled.Label("kind") != "read" {
		t.Fatalf("label: %+v", labeled)
	}
}

func TestSubmitBatchEndpoint(t *testing.T) {
	s, mux := newTestServer(t)
	s.svc.Deploy("app1", &core.Classifier{
		LabelKey: "kind",
		Embedder: constEmbedder{},
		Labeler:  &core.RuleLabeler{RuleName: "r", Rule: func(v querc.Vector) string { return "read" }},
	})
	body := `{"sqls": ["select 1", "select 2", "select 3"], "workers": 2}`
	rr := do(t, mux, "POST", "/v1/apps/app1/queries:batch", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rr.Code, rr.Body)
	}
	var resp struct {
		Queries []*core.LabeledQuery `json:"queries"`
		Count   int                  `json:"count"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 || len(resp.Queries) != 3 {
		t.Fatalf("count: %d/%d", resp.Count, len(resp.Queries))
	}
	for i, q := range resp.Queries {
		if q.SQL != []string{"select 1", "select 2", "select 3"}[i] {
			t.Fatalf("order broken at %d: %q", i, q.SQL)
		}
		if q.Label("kind") != "read" {
			t.Fatalf("annotation missing: %+v", q)
		}
	}
	// Serving leaves the training module to ground-truth log imports.
	if got := s.svc.Training().Size("app1"); got != 0 {
		t.Fatalf("training size: %d", got)
	}
	if rr := do(t, mux, "POST", "/v1/apps/app1/queries:batch", `{"sqls": []}`); rr.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", rr.Code)
	}
	if rr := do(t, mux, "POST", "/v1/apps/app1/queries:batch", `{"sqls": ["select 1", ""]}`); rr.Code != http.StatusBadRequest {
		t.Fatalf("empty sql in batch: %d", rr.Code)
	}
	if rr := do(t, mux, "POST", "/v1/apps/ghost/queries:batch", `{"sqls": ["x"]}`); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown app: %d", rr.Code)
	}
}

// TestResponsesOmitZeroArrival checks that submit and batch responses leave
// out a query's unknown (zero) arrival time instead of serializing it as
// "0001-01-01T00:00:00Z".
func TestResponsesOmitZeroArrival(t *testing.T) {
	s, mux := newTestServer(t)
	s.svc.Deploy("app1", &core.Classifier{
		LabelKey: "kind",
		Embedder: constEmbedder{},
		Labeler:  &core.RuleLabeler{RuleName: "r", Rule: func(v querc.Vector) string { return "read" }},
	})
	rr := do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("submit: %d %s", rr.Code, rr.Body)
	}
	var single map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	if _, ok := single["arrival"]; ok {
		t.Fatalf("submit response carries a zero arrival: %s", rr.Body)
	}

	rr = do(t, mux, "POST", "/v1/apps/app1/queries:batch", `{"sqls": ["select 1", "select 2"]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rr.Code, rr.Body)
	}
	var batch struct {
		Queries []map[string]json.RawMessage `json:"queries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	for i, q := range batch.Queries {
		if _, ok := q["arrival"]; ok {
			t.Fatalf("batch query %d carries a zero arrival: %s", i, rr.Body)
		}
	}
}

type constEmbedder struct{}

func (constEmbedder) Embed(sql string) querc.Vector { return querc.Vector{1} }
func (constEmbedder) Dim() int                      { return 1 }
func (constEmbedder) Name() string                  { return "const" }

func TestErrorPaths(t *testing.T) {
	s, mux := newTestServer(t)
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"unknown app", "/v1/apps/ghost/queries", `{"sql":"select 1"}`, http.StatusNotFound},
		{"missing sql", "/v1/apps/app1/queries", `{}`, http.StatusBadRequest},
		{"missing embedder", "/v1/apps/app1/retrain", `{"label":"x","embedder":"missing"}`, http.StatusNotFound},
		{"bad logs", "/v1/apps/app1/logs", `not json`, http.StatusBadRequest},
		{"null log row", "/v1/apps/app1/logs", `[null]`, http.StatusBadRequest},
		{"null after valid row", "/v1/apps/app1/logs", `[{"sql":"select 1"},null]`, http.StatusBadRequest},
		{"empty log sql", "/v1/apps/app1/logs", `[{"sql":"","labels":{"user":"u"}}]`, http.StatusBadRequest},
		{"missing log sql", "/v1/apps/app1/logs", `[{"labels":{"user":"u"}}]`, http.StatusBadRequest},
	} {
		if rr := do(t, mux, "POST", tc.path, tc.body); rr.Code != tc.want {
			t.Errorf("%s: %d, want %d (%s)", tc.name, rr.Code, tc.want, rr.Body)
		}
	}
	// A rejected log batch ingests none of its rows.
	if got := s.svc.Training().Size("app1"); got != 0 {
		t.Fatalf("rejected logs retained %d rows", got)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, mux := newTestServer(t)
	s.svc.Deploy("app1", &core.Classifier{
		LabelKey: "kind",
		Embedder: constEmbedder{},
		Labeler:  &core.RuleLabeler{RuleName: "r", Rule: func(v querc.Vector) string { return "read" }},
	})
	// Same SQL twice: the second submit must hit the shared vector cache.
	for i := 0; i < 2; i++ {
		if rr := do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`); rr.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, rr.Code, rr.Body)
		}
	}
	rr := do(t, mux, "GET", "/v1/stats", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rr.Code, rr.Body)
	}
	var resp struct {
		Apps []struct {
			App       string `json:"app"`
			Processed int64  `json:"processed"`
		} `json:"apps"`
		VectorCache *struct {
			Hits     int64   `json:"hits"`
			Misses   int64   `json:"misses"`
			Entries  int     `json:"entries"`
			Capacity int     `json:"capacity"`
			HitRate  float64 `json:"hitRate"`
		} `json:"vectorCache"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Apps) != 1 || resp.Apps[0].App != "app1" || resp.Apps[0].Processed != 2 {
		t.Fatalf("apps: %+v", resp.Apps)
	}
	if resp.VectorCache == nil {
		t.Fatal("vectorCache missing")
	}
	if resp.VectorCache.Hits != 1 || resp.VectorCache.Misses != 1 || resp.VectorCache.Entries != 1 {
		t.Fatalf("cache counters: %+v", *resp.VectorCache)
	}
	if resp.VectorCache.Capacity <= 0 || resp.VectorCache.HitRate != 0.5 {
		t.Fatalf("cache shape: %+v", *resp.VectorCache)
	}
}

// TestDriftEndpoint covers both sides of the drift plane's HTTP surface:
// 404 while disabled, and scores/counters once enabled and ticked across a
// workload shift.
func TestDriftEndpoint(t *testing.T) {
	s, mux := newTestServer(t)
	if rr := do(t, mux, "GET", "/v1/drift", ""); rr.Code != http.StatusNotFound {
		t.Fatalf("drift while disabled: %d", rr.Code)
	}

	s.svc.Deploy("app1", &core.Classifier{
		LabelKey: "kind",
		Embedder: constEmbedder{},
		Labeler:  &core.RuleLabeler{RuleName: "r", Rule: func(v querc.Vector) string { return "read" }},
	})
	ctl := s.svc.EnableDriftControl(querc.ControllerConfig{
		Threshold: 0.25,
		Detector:  querc.DriftDetectorConfig{MinQueries: 2},
	})
	for i := 0; i < 4; i++ {
		do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`)
	}
	ctl.Tick() // baseline
	for i := 0; i < 4; i++ {
		do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`)
	}
	ctl.Tick() // stationary score

	rr := do(t, mux, "GET", "/v1/drift", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("drift: %d %s", rr.Code, rr.Body)
	}
	var resp struct {
		Threshold float64 `json:"threshold"`
		Ticks     int64   `json:"ticks"`
		Apps      []struct {
			App  string `json:"app"`
			Keys []struct {
				LabelKey string `json:"labelKey"`
				Score    struct {
					Total float64 `json:"total"`
				} `json:"score"`
				Retrains int64 `json:"retrains"`
			} `json:"keys"`
		} `json:"apps"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Threshold != 0.25 || resp.Ticks != 2 {
		t.Fatalf("drift shape: %+v", resp)
	}
	if len(resp.Apps) != 1 || resp.Apps[0].App != "app1" || len(resp.Apps[0].Keys) != 1 {
		t.Fatalf("drift apps: %+v", resp.Apps)
	}
	k := resp.Apps[0].Keys[0]
	if k.LabelKey != "kind" || k.Score.Total >= 0.25 || k.Retrains != 0 {
		t.Fatalf("stationary drift key: %+v", k)
	}

	// Drift counters also roll up into /v1/stats once the plane is on.
	rr = do(t, mux, "GET", "/v1/stats", "")
	var stats struct {
		DriftPlane bool `json:"driftPlane"`
		Apps       []struct {
			DriftRetrains int64 `json:"driftRetrains"`
		} `json:"apps"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.DriftPlane || len(stats.Apps) != 1 || stats.Apps[0].DriftRetrains != 0 {
		t.Fatalf("stats drift rollup: %+v", stats)
	}
}

func TestListEndpoints(t *testing.T) {
	_, mux := newTestServer(t)
	rr := do(t, mux, "GET", "/v1/apps", "")
	if rr.Code != http.StatusOK || !bytes.Contains(rr.Body.Bytes(), []byte("app1")) {
		t.Fatalf("apps: %d %s", rr.Code, rr.Body)
	}
	rr = do(t, mux, "GET", "/v1/models", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("models: %d %s", rr.Code, rr.Body)
	}
}

// TestSchedEndpoint covers both sides of the scheduling plane's HTTP
// surface: 404 while disabled, and queue/SLA/backend accounting once a
// dispatcher is attached and queries flow through it.
func TestSchedEndpoint(t *testing.T) {
	s, mux := newTestServer(t)
	if rr := do(t, mux, "GET", "/v1/sched", ""); rr.Code != http.StatusNotFound {
		t.Fatalf("sched while disabled: %d", rr.Code)
	}

	d, err := buildScheduler("label", "bk1:2,bk2:1", "light:1ns", 64, failurePlane{}, s.svc.Metrics(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.sched = d
	s.svc.AttachScheduler(d)
	s.svc.Deploy("app1", &core.Classifier{
		LabelKey: "resource",
		Embedder: constEmbedder{},
		Labeler:  &core.RuleLabeler{RuleName: "r", Rule: func(v querc.Vector) string { return "light" }},
	})
	for i := 0; i < 3; i++ {
		if rr := do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`); rr.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, rr.Code, rr.Body)
		}
	}
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	rr := do(t, mux, "GET", "/v1/sched", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("sched: %d %s", rr.Code, rr.Body)
	}
	var snap querc.SchedulerStats
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Policy != "label" || snap.Submitted != 3 || snap.Completed != 3 {
		t.Fatalf("sched snapshot: %+v", snap)
	}
	if len(snap.Backends) != 2 || snap.Backends[0].Name != "bk1" || snap.Backends[0].Slots != 2 {
		t.Fatalf("backends: %+v", snap.Backends)
	}
	var light *querc.SchedSLASnapshot
	for i := range snap.Classes {
		if snap.Classes[i].Class == "light" {
			light = &snap.Classes[i]
		}
	}
	if light == nil || light.Completed != 3 || light.Violations != 3 {
		t.Fatalf("light SLA accounting: %+v", snap.Classes)
	}

	// Scheduler counters roll up into /v1/stats once the plane is on.
	rr = do(t, mux, "GET", "/v1/stats", "")
	var stats struct {
		SchedulerPlane bool `json:"schedulerPlane"`
		Scheduler      *struct {
			Policy    string `json:"policy"`
			Submitted uint64 `json:"submitted"`
			Completed uint64 `json:"completed"`
		} `json:"scheduler"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.SchedulerPlane || stats.Scheduler == nil || stats.Scheduler.Completed != 3 {
		t.Fatalf("stats scheduler rollup: %+v", stats)
	}
	d.Close()
}

// TestParseBackendsAndSLA pins the -backends / -sla flag grammar.
func TestParseBackendsAndSLA(t *testing.T) {
	exec := func(*querc.SchedTask) error { return nil }
	bks, err := parseBackends("a:2, b:1", exec)
	if err != nil || len(bks) != 2 || bks[0].Name != "a" || bks[0].Slots != 2 || bks[1].Name != "b" {
		t.Fatalf("parseBackends: %+v %v", bks, err)
	}
	for _, bad := range []string{"", "a", "a:0", "a:x", ":3"} {
		if _, err := parseBackends(bad, exec); err == nil {
			t.Fatalf("parseBackends(%q) must fail", bad)
		}
	}
	sla, order, err := parseSLA("light:250ms, interactive:1s, batch:60s")
	if err != nil || sla["light"] != 250*time.Millisecond || sla["batch"] != 60*time.Second {
		t.Fatalf("parseSLA: %+v %v", sla, err)
	}
	if len(order) != 3 || order[1] != "interactive" || order[2] != "batch" {
		t.Fatalf("parseSLA order: %v", order)
	}
	if got, _, err := parseSLA(""); err != nil || len(got) != 0 {
		t.Fatalf("empty sla: %+v %v", got, err)
	}
	for _, bad := range []string{"light", "light:nope", ":1s", "light:-1s"} {
		if _, _, err := parseSLA(bad); err == nil {
			t.Fatalf("parseSLA(%q) must fail", bad)
		}
	}
	if _, err := buildScheduler("nope", "a:1", "", 8, failurePlane{}, nil, nil); err == nil {
		t.Fatal("unknown policy must fail")
	}
}

// TestGracefulShutdown pins the teardown sequence: the HTTP listener stops
// accepting, in-flight work drains from the scheduler, and shutdown returns
// only after both.
func TestGracefulShutdown(t *testing.T) {
	d, err := buildScheduler("fifo", "bk:1", "", 64, failurePlane{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Queue a couple of simulated tasks (10ms default cost each) so the
	// drain has real work to wait for.
	for i := 0; i < 3; i++ {
		if err := d.Enqueue(&core.LabeledQuery{SQL: "select 1"}); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.NewServeMux()}
	go srv.Serve(ln)

	if err := shutdown(srv, nil, d, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Completed != 3 || st.Backlog != 0 || st.Inflight != 0 {
		t.Fatalf("scheduler not drained: %+v", st)
	}
	if err := d.Enqueue(&core.LabeledQuery{SQL: "late"}); !errors.Is(err, querc.ErrSchedClosed) {
		t.Fatalf("post-shutdown enqueue: %v", err)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestFailurePlaneFlagsAndEndpoints: the -deadline/-retry/-hedge/-breaker
// flags wire the failure plane into the dispatcher, /v1/sched reports
// per-backend breaker state, and /v1/stats rolls up the plane's counters.
func TestFailurePlaneFlagsAndEndpoints(t *testing.T) {
	s, mux := newTestServer(t)
	fp := failurePlane{deadline: 5 * time.Second, retries: 2, hedge: time.Second, breaker: true}
	if !fp.on() {
		t.Fatal("failurePlane.on() = false with every knob set")
	}
	if (failurePlane{}).on() {
		t.Fatal("failurePlane.on() = true for the zero value")
	}
	d, err := buildScheduler("label", "bk1:2,bk2:1", "", 64, fp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.sched = d
	s.svc.AttachScheduler(d)
	s.svc.Deploy("app1", &core.Classifier{
		LabelKey: "resource",
		Embedder: constEmbedder{},
		Labeler:  &core.RuleLabeler{RuleName: "r", Rule: func(v querc.Vector) string { return "light" }},
	})
	for i := 0; i < 3; i++ {
		if rr := do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`); rr.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, rr.Code, rr.Body)
		}
	}
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	rr := do(t, mux, "GET", "/v1/sched", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("sched: %d %s", rr.Code, rr.Body)
	}
	var snap querc.SchedulerStats
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Completed != 3 || snap.Failed != 0 {
		t.Fatalf("sched snapshot: %+v", snap)
	}
	for _, b := range snap.Backends {
		if b.Breaker != querc.SchedBreakerClosed {
			t.Fatalf("backend %s breaker = %q, want closed", b.Name, b.Breaker)
		}
	}

	rr = do(t, mux, "GET", "/v1/stats", "")
	var stats struct {
		Scheduler map[string]any `json:"scheduler"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"failed", "retries", "retryStarved", "pendingRetries",
		"hedges", "hedgeWins", "hedgeWaste", "deadlineExceeded",
		"breakerOpen", "quarantined",
	} {
		if _, ok := stats.Scheduler[key]; !ok {
			t.Errorf("stats scheduler rollup missing %q: %v", key, stats.Scheduler)
		}
	}
	d.Close()
}

// TestShutdownDrainsPendingRetries: a retry parked in a long backoff at
// SIGTERM time is collapsed and completed by the graceful-shutdown drain, not
// abandoned.
func TestShutdownDrainsPendingRetries(t *testing.T) {
	transient := errors.New("transient")
	exec := func(task *querc.SchedTask) error {
		if task.Attempt == 1 {
			return transient
		}
		return nil
	}
	d, err := querc.NewDispatcher(querc.SchedulerConfig{
		Backends: []querc.SchedBackend{{Name: "bk", Slots: 1, Exec: exec}},
		// Backoff far longer than the test: only shutdown's drain collapse
		// can finish the retry in time.
		Retry: &querc.SchedRetryConfig{MaxRetries: 1, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enqueue(&core.LabeledQuery{SQL: "select 1"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Counters().PendingRetries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retry never parked in backoff")
		}
		time.Sleep(time.Millisecond)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.NewServeMux()}
	go srv.Serve(ln)
	if err := shutdown(srv, nil, d, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Completed != 1 || st.PendingRetries != 0 || st.Retries != 1 {
		t.Fatalf("retry not drained: %+v", st)
	}
}

func TestStartPprof(t *testing.T) {
	// Empty address: disabled, no listener.
	if ln, err := startPprof(""); err != nil || ln != nil {
		t.Fatalf("disabled pprof: %v %v", ln, err)
	}
	ln, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status: %d", resp.StatusCode)
	}
	// An unbindable address reports the error instead of dying in the
	// goroutine.
	if _, err := startPprof(ln.Addr().String()); err == nil {
		t.Fatal("double bind must fail")
	}
}

// deployConstLabeler wires the stock test classifier that labels every query
// "light" so submissions flow through the annotate path deterministically.
func deployConstLabeler(s *server, label string) {
	s.svc.Deploy("app1", &core.Classifier{
		LabelKey: "resource",
		Embedder: constEmbedder{},
		Labeler:  &core.RuleLabeler{RuleName: "r", Rule: func(v querc.Vector) string { return label }},
	})
}

// TestMetricsEndpoint: GET /metrics serves valid Prometheus exposition text
// carrying at least one series from every plane wired into the shared
// registry (embedding cache, app workers, drift control, scheduler).
func TestMetricsEndpoint(t *testing.T) {
	s, mux := newTestServer(t)
	deployConstLabeler(s, "light")
	d, err := buildScheduler("label", "bk1:2,bk2:1", "light:1s", 64, failurePlane{}, s.svc.Metrics(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.sched = d
	s.svc.AttachScheduler(d)
	defer d.Close()
	ctl := s.svc.EnableDriftControl(querc.ControllerConfig{
		Threshold: 0.5,
		Detector:  querc.DriftDetectorConfig{MinQueries: 2},
	})
	for i := 0; i < 3; i++ {
		if rr := do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`); rr.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, rr.Code, rr.Body)
		}
	}
	ctl.Tick()
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	rr := do(t, mux, "GET", "/metrics", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: %d %s", rr.Code, rr.Body)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type: %q", ct)
	}
	body := rr.Body.Bytes()
	if err := querc.ValidatePromText(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	// One representative series per plane.
	for _, name := range []string{
		"querc_app_processed_total",                // annotation plane
		"querc_vector_cache_hits_total",            // embedding plane
		"querc_drift_ticks_total",                  // drift plane
		"querc_sched_submitted_total",              // scheduling plane
		"querc_sched_class_latency_seconds_bucket", // latency histogram
	} {
		if !bytes.Contains(body, []byte(name)) {
			t.Errorf("metric %q missing from exposition:\n%s", name, body)
		}
	}
}

// TestStatsFieldCompatibility is the golden key-set for /v1/stats: the
// handler is now a view over the metrics registry, and this test pins that
// the migration changed none of the JSON field names.
func TestStatsFieldCompatibility(t *testing.T) {
	s, mux := newTestServer(t)
	deployConstLabeler(s, "light")
	d, err := buildScheduler("label", "bk1:1", "light:1s", 64, failurePlane{}, s.svc.Metrics(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.sched = d
	s.svc.AttachScheduler(d)
	defer d.Close()
	s.svc.EnableDriftControl(querc.ControllerConfig{Threshold: 0.5})
	for i := 0; i < 2; i++ {
		if rr := do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`); rr.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, rr.Code, rr.Body)
		}
	}
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	rr := do(t, mux, "GET", "/v1/stats", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rr.Code, rr.Body)
	}
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	requireKeys := func(raw json.RawMessage, where string, keys ...string) {
		t.Helper()
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				t.Errorf("%s missing golden field %q (have %v)", where, k, m)
			}
		}
	}
	for _, k := range []string{"apps", "driftPlane", "schedulerPlane", "scheduler", "vectorCache"} {
		if _, ok := resp[k]; !ok {
			t.Fatalf("top-level field %q missing: %s", k, rr.Body)
		}
	}
	var apps []json.RawMessage
	if err := json.Unmarshal(resp["apps"], &apps); err != nil || len(apps) != 1 {
		t.Fatalf("apps: %v %s", err, resp["apps"])
	}
	requireKeys(apps[0], "apps[0]",
		"app", "processed", "trainingSet",
		"driftRetrains", "driftPromotions", "driftRejections")
	requireKeys(resp["scheduler"], "scheduler",
		"policy", "submitted", "completed", "failed", "rejected", "shed",
		"evicted", "oomViolations", "memWaits", "backlog", "inflight",
		"retries", "retryStarved", "pendingRetries", "hedges", "hedgeWins",
		"hedgeWaste", "deadlineExceeded", "breakerOpen", "quarantined")
	requireKeys(resp["vectorCache"], "vectorCache",
		"hits", "misses", "evictions", "entries", "capacity", "hitRate")
}

// TestTraceEndpoint: GET /v1/trace is 404 until tracing is enabled, then
// serves the settled ring with n/sort/outcome filtering.
func TestTraceEndpoint(t *testing.T) {
	s, mux := newTestServer(t)
	if rr := do(t, mux, "GET", "/v1/trace", ""); rr.Code != http.StatusNotFound {
		t.Fatalf("trace while disabled: %d", rr.Code)
	}

	s.svc.EnableTracing(querc.TracerConfig{SampleRate: 1, RingSize: 64})
	deployConstLabeler(s, "light")
	for i := 0; i < 3; i++ {
		if rr := do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`); rr.Code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, rr.Code, rr.Body)
		}
	}

	rr := do(t, mux, "GET", "/v1/trace", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("trace: %d %s", rr.Code, rr.Body)
	}
	var resp struct {
		Stats  querc.TracerStats   `json:"stats"`
		Traces []querc.TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// No scheduler attached: the annotation worker is the terminal stage, so
	// every sampled trace settles annotated exactly once.
	if resp.Stats.Begun != 3 || resp.Stats.Sampled != 3 || resp.Stats.Annotated != 3 {
		t.Fatalf("tracer stats: %+v", resp.Stats)
	}
	if resp.Stats.DoubleSettles != 0 {
		t.Fatalf("double settles: %+v", resp.Stats)
	}
	if len(resp.Traces) != 3 {
		t.Fatalf("ring: %d records", len(resp.Traces))
	}
	for _, tr := range resp.Traces {
		if tr.App != "app1" || tr.SQL != "select 1" || tr.Outcome != "annotated" {
			t.Fatalf("record: %+v", tr)
		}
		if tr.TotalNs <= 0 {
			t.Fatalf("no total latency: %+v", tr)
		}
	}

	// Query-string surface: n caps, outcome filters, bad sort rejects.
	if rr := do(t, mux, "GET", "/v1/trace?n=1&sort=slowest", ""); rr.Code != http.StatusOK {
		t.Fatalf("slowest: %d %s", rr.Code, rr.Body)
	} else {
		var one struct {
			Traces []querc.TraceRecord `json:"traces"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &one); err != nil || len(one.Traces) != 1 {
			t.Fatalf("n=1: %v %s", err, rr.Body)
		}
	}
	if rr := do(t, mux, "GET", "/v1/trace?outcome=shed", ""); rr.Code != http.StatusOK {
		t.Fatalf("outcome filter: %d", rr.Code)
	} else {
		var none struct {
			Traces []querc.TraceRecord `json:"traces"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &none); err != nil || len(none.Traces) != 0 {
			t.Fatalf("outcome=shed: %v %s", err, rr.Body)
		}
	}
	if rr := do(t, mux, "GET", "/v1/trace?sort=bogus", ""); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad sort: %d", rr.Code)
	}
	if rr := do(t, mux, "GET", "/v1/trace?n=zero", ""); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad n: %d", rr.Code)
	}
}

// TestStatsPollRace hammers the read-only observability surfaces
// (/v1/stats, /metrics, /v1/trace) while queries flow, so `go test -race`
// proves snapshot reads never race instrument writers. This is the
// regression test for the torn-counter reads the registry migration fixed.
func TestStatsPollRace(t *testing.T) {
	s, mux := newTestServer(t)
	deployConstLabeler(s, "light")
	d, err := buildScheduler("label", "bk1:2", "light:1s", 256, failurePlane{}, s.svc.Metrics(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.sched = d
	s.svc.AttachScheduler(d)
	ctl := s.svc.EnableDriftControl(querc.ControllerConfig{
		Threshold: 0.5,
		Detector:  querc.DriftDetectorConfig{MinQueries: 2},
	})
	s.svc.EnableTracing(querc.TracerConfig{SampleRate: 1, RingSize: 128})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/v1/stats", "/metrics", "/v1/trace", "/v1/sched", "/v1/drift"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rr := do(t, mux, "GET", p, ""); rr.Code != http.StatusOK {
					t.Errorf("%s: %d %s", p, rr.Code, rr.Body)
					return
				}
			}
		}(path)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				do(t, mux, "POST", "/v1/apps/app1/queries", `{"sql":"select 1"}`)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			ctl.Tick()
		}
	}()

	// Hold the pollers open long enough to overlap the writers, then stop.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Close()
}
