package core

import (
	"fmt"
	"sync"
	"testing"

	"querc/internal/doc2vec"
	"querc/internal/ml/forest"
	"querc/internal/vec"
)

// stubEmbedder hashes tokens into a small fixed vector — fast and
// deterministic, sufficient for architecture tests.
type stubEmbedder struct{ dim int }

func (s stubEmbedder) Embed(sql string) vec.Vector {
	v := vec.New(s.dim)
	for i := 0; i < len(sql); i++ {
		v[int(sql[i])%s.dim]++
	}
	v.Normalize()
	return v
}
func (s stubEmbedder) Dim() int     { return s.dim }
func (s stubEmbedder) Name() string { return "stub" }

func TestLabeledQueryBasics(t *testing.T) {
	q := &LabeledQuery{SQL: "select 1"}
	q.SetLabel("user", "alice")
	q.SetLabel("cluster", "c1")
	if q.Label("user") != "alice" {
		t.Fatal("label lost")
	}
	keys := q.LabelKeys()
	if len(keys) != 2 || keys[0] != "cluster" || keys[1] != "user" {
		t.Fatalf("keys not sorted: %v", keys)
	}
	c := q.Clone()
	c.SetLabel("user", "bob")
	if q.Label("user") != "alice" {
		t.Fatal("clone aliases the original")
	}
}

func TestClassifierProcess(t *testing.T) {
	clf := &Classifier{
		LabelKey: "kind",
		Embedder: stubEmbedder{8},
		Labeler: &RuleLabeler{RuleName: "first", Rule: func(v vec.Vector) string {
			if v[int('s')%8] > 0 {
				return "has-s"
			}
			return "no-s"
		}},
	}
	q := &LabeledQuery{SQL: "select"}
	if got := clf.Process(q); got != "has-s" {
		t.Fatalf("classifier label: %q", got)
	}
	if q.Label("kind") != "has-s" {
		t.Fatal("label not written to query")
	}
}

func TestForestLabelerFitAndPredict(t *testing.T) {
	fl := NewForestLabeler(forest.Config{NumTrees: 10, Seed: 1})
	if fl.Label(vec.Vector{1, 2}) != "" {
		t.Fatal("untrained labeler must return empty")
	}
	var X []vec.Vector
	var y []string
	for i := 0; i < 60; i++ {
		if i%2 == 0 {
			X = append(X, vec.Vector{1, 0})
			y = append(y, "even")
		} else {
			X = append(X, vec.Vector{0, 1})
			y = append(y, "odd")
		}
	}
	if err := fl.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := fl.Label(vec.Vector{1, 0}); got != "even" {
		t.Fatalf("predict: %q", got)
	}
	lbl, conf := fl.Confidence(vec.Vector{0, 1})
	if lbl != "odd" || conf <= 0.5 {
		t.Fatalf("confidence: %q %.2f", lbl, conf)
	}
	classes := fl.Classes()
	if len(classes) != 2 || classes[0] != "even" {
		t.Fatalf("classes: %v", classes)
	}
}

func TestNearestCentroidLabeler(t *testing.T) {
	n := &NearestCentroidLabeler{}
	X := []vec.Vector{{1, 0}, {1, 0.1}, {0, 1}, {0.1, 1}}
	y := []string{"a", "a", "b", "b"}
	if err := n.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if n.Label(vec.Vector{0.9, 0}) != "a" || n.Label(vec.Vector{0, 0.9}) != "b" {
		t.Fatal("centroid labeling wrong")
	}
	if err := n.Fit(nil, nil); err == nil {
		t.Fatal("empty fit must fail")
	}
}

func TestQworkerPipeline(t *testing.T) {
	w := NewQworker("app1", 4)
	var forwarded []*LabeledQuery
	w.Forward = func(q *LabeledQuery) { forwarded = append(forwarded, q) }
	w.Deploy(&Classifier{
		LabelKey: "len",
		Embedder: stubEmbedder{4},
		Labeler:  &RuleLabeler{RuleName: "len", Rule: func(v vec.Vector) string { return "L" }},
	})
	for i := 0; i < 6; i++ {
		w.Process(&LabeledQuery{SQL: fmt.Sprintf("select %d", i)})
	}
	if w.Processed() != 6 {
		t.Fatalf("processed: %d", w.Processed())
	}
	if len(w.Window()) != 4 {
		t.Fatalf("window not bounded: %d", len(w.Window()))
	}
	if len(forwarded) != 6 {
		t.Fatalf("forwarded: %d", len(forwarded))
	}
	if forwarded[0].Label("len") != "L" {
		t.Fatal("labels missing downstream")
	}
}

func TestQworkerDeployReplaces(t *testing.T) {
	w := NewQworker("app", 4)
	mk := func(val string) *Classifier {
		return &Classifier{LabelKey: "k", Embedder: stubEmbedder{4},
			Labeler: &RuleLabeler{RuleName: val, Rule: func(vec.Vector) string { return val }}}
	}
	w.Deploy(mk("v1"))
	w.Deploy(mk("v2")) // same LabelKey: replaces, not appends
	if len(w.Classifiers()) != 1 {
		t.Fatalf("classifiers: %d", len(w.Classifiers()))
	}
	q := w.Process(&LabeledQuery{SQL: "x"})
	if q.Label("k") != "v2" {
		t.Fatalf("hot swap failed: %q", q.Label("k"))
	}
}

func TestQworkerConcurrentProcess(t *testing.T) {
	w := NewQworker("app", 16)
	w.Deploy(&Classifier{LabelKey: "k", Embedder: stubEmbedder{4},
		Labeler: &RuleLabeler{RuleName: "r", Rule: func(vec.Vector) string { return "x" }}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w.Process(&LabeledQuery{SQL: fmt.Sprintf("q %d %d", g, i)})
			}
		}(g)
	}
	wg.Wait()
	if w.Processed() != 400 {
		t.Fatalf("processed: %d", w.Processed())
	}
}

func TestQworkerWindowOrder(t *testing.T) {
	w := NewQworker("app", 4)
	for i := 0; i < 7; i++ {
		w.Process(&LabeledQuery{SQL: fmt.Sprintf("q%d", i)})
	}
	win := w.Window()
	if len(win) != 4 {
		t.Fatalf("window size: %d", len(win))
	}
	// Ring buffer must preserve arrival order, most recent last.
	for i, q := range win {
		if want := fmt.Sprintf("q%d", i+3); q.SQL != want {
			t.Fatalf("window[%d] = %q, want %q", i, q.SQL, want)
		}
	}
	// A short window before wrap-around keeps partial contents in order.
	w2 := NewQworker("app", 8)
	w2.Process(&LabeledQuery{SQL: "only"})
	if win := w2.Window(); len(win) != 1 || win[0].SQL != "only" {
		t.Fatalf("partial window: %+v", win)
	}
}

func TestQworkerProcessBatch(t *testing.T) {
	w := NewQworker("app", 32)
	w.Deploy(&Classifier{LabelKey: "k", Embedder: stubEmbedder{4},
		Labeler: &RuleLabeler{RuleName: "r", Rule: func(vec.Vector) string { return "x" }}})
	var forwarded []*LabeledQuery
	w.Forward = func(q *LabeledQuery) { forwarded = append(forwarded, q) }
	qs := make([]*LabeledQuery, 500)
	for i := range qs {
		qs[i] = &LabeledQuery{SQL: fmt.Sprintf("select %d", i)}
	}
	out := w.ProcessBatch(qs, 8)
	if len(out) != 500 {
		t.Fatalf("batch output: %d", len(out))
	}
	if len(forwarded) != len(qs) {
		t.Fatalf("forwarded: %d", len(forwarded))
	}
	for i := range qs {
		if forwarded[i] != qs[i] {
			t.Fatalf("Forward out of input order at %d: %q", i, forwarded[i].SQL)
		}
	}
	for i, q := range out {
		if q.SQL != fmt.Sprintf("select %d", i) {
			t.Fatalf("batch order broken at %d: %q", i, q.SQL)
		}
		if q.Label("k") != "x" || q.App != "app" {
			t.Fatalf("annotation missing at %d: %+v", i, q)
		}
	}
	if w.Processed() != 500 {
		t.Fatalf("processed: %d", w.Processed())
	}
	if len(w.Window()) != 32 {
		t.Fatalf("window: %d", len(w.Window()))
	}
}

// TestQworkerDeployDuringBatch hot-swaps classifiers while Process and
// ProcessBatch are in flight; run with -race to check the deployment path.
func TestQworkerDeployDuringBatch(t *testing.T) {
	w := NewQworker("app", 16)
	mk := func(val string) *Classifier {
		return &Classifier{LabelKey: "k", Embedder: stubEmbedder{4},
			Labeler: &RuleLabeler{RuleName: val, Rule: func(vec.Vector) string { return val }}}
	}
	w.Deploy(mk("v0"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			w.Deploy(mk(fmt.Sprintf("v%d", i)))
		}
	}()
	qs := make([]*LabeledQuery, 2000)
	for i := range qs {
		qs[i] = &LabeledQuery{SQL: fmt.Sprintf("q%d", i)}
	}
	w.ProcessBatch(qs, 4)
	for i := 0; i < 100; i++ {
		w.Process(&LabeledQuery{SQL: "single"})
	}
	<-done
	if w.Processed() != 2100 {
		t.Fatalf("processed: %d", w.Processed())
	}
	// Every query saw exactly one (coherent) classifier version.
	for _, q := range qs {
		if q.Label("k") == "" {
			t.Fatal("query missed annotation during hot swap")
		}
	}
}

func TestServiceSubmitBatch(t *testing.T) {
	s := NewService()
	s.AddApplication("X", 8, nil)
	if _, err := s.SubmitBatch("ghost", []string{"select 1"}, 4); err == nil {
		t.Fatal("unknown app must fail")
	}
	s.Deploy("X", &Classifier{LabelKey: "k", Embedder: stubEmbedder{8},
		Labeler: &RuleLabeler{RuleName: "r", Rule: func(vec.Vector) string { return "ok" }}})
	sqls := make([]string, 300)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("select %d from t", i)
	}
	out, err := s.SubmitBatch("X", sqls, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 300 {
		t.Fatalf("batch size: %d", len(out))
	}
	for i, q := range out {
		if q.SQL != sqls[i] {
			t.Fatalf("order broken at %d", i)
		}
		if q.Label("k") != "ok" || q.App != "X" {
			t.Fatalf("annotations lost at %d: %+v", i, q)
		}
	}
	// Served queries carry predicted labels, so serving — batch or serial —
	// leaves the training module empty.
	serial := NewService()
	serial.AddApplication("X", 8, nil)
	serial.Deploy("X", &Classifier{LabelKey: "k", Embedder: stubEmbedder{8},
		Labeler: &RuleLabeler{RuleName: "r", Rule: func(vec.Vector) string { return "ok" }}})
	for _, sql := range sqls {
		if _, err := serial.Submit("X", sql); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Training().Size("X"), serial.Training().Size("X"); got != 0 || want != 0 {
		t.Fatalf("training size: batch %d, serial %d, want 0", got, want)
	}
	// Deploy during a second concurrent batch (exercised under -race).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.SubmitBatch("X", sqls, 4); err != nil {
			t.Error(err)
		}
	}()
	s.Deploy("X", &Classifier{LabelKey: "k", Embedder: stubEmbedder{8},
		Labeler: &RuleLabeler{RuleName: "r2", Rule: func(vec.Vector) string { return "ok2" }}})
	wg.Wait()
	if got := s.Training().Size("X"); got != 0 {
		t.Fatalf("training size after second batch: %d", got)
	}
}

func TestTrainingModuleConcurrentShards(t *testing.T) {
	tm := NewTrainingModule()
	tm.SetRetention("a0", 100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := fmt.Sprintf("a%d", g%4)
			for i := 0; i < 500; i++ {
				tm.Ingest(&LabeledQuery{App: app, SQL: "q"})
			}
		}(g)
	}
	wg.Wait()
	if got := tm.Size("a0"); got != 100 {
		t.Fatalf("capped shard: %d", got)
	}
	for _, app := range []string{"a1", "a2", "a3"} {
		if got := tm.Size(app); got != 1000 {
			t.Fatalf("shard %s: %d", app, got)
		}
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	tm := NewTrainingModule()
	clf := &Classifier{LabelKey: "k", Embedder: stubEmbedder{4},
		Labeler: &RuleLabeler{RuleName: "r", Rule: func(vec.Vector) string { return "x" }}}
	if acc, n := tm.Evaluate("empty", "k", clf, 0.2); acc != 0 || n != 0 {
		t.Fatalf("empty set: %v %v", acc, n)
	}
	q := &LabeledQuery{App: "app", SQL: "s"}
	q.SetLabel("k", "x")
	tm.Ingest(q)
	// A single example with every extreme holdout fraction must not panic
	// and must score the holdout when one exists.
	for _, frac := range []float64{-1, 0, 1e-9, 0.5, 1, 2} {
		acc, n := tm.Evaluate("app", "k", clf, frac)
		if n > 0 && acc != 1 {
			t.Fatalf("frac %v: acc %v over %d", frac, acc, n)
		}
	}
}

func TestTrainingModuleRetrainAndEvaluate(t *testing.T) {
	tm := NewTrainingModule()
	for i := 0; i < 120; i++ {
		q := &LabeledQuery{App: "app", SQL: "select aaa"}
		q.SetLabel("user", "alice")
		if i%2 == 1 {
			q.SQL = "insert zzz"
			q.SetLabel("user", "bob")
		}
		tm.Ingest(q)
	}
	if tm.Size("app") != 120 {
		t.Fatalf("size: %d", tm.Size("app"))
	}
	clf, err := tm.Retrain("app", "user", stubEmbedder{8}, NewForestLabeler(forest.Config{NumTrees: 10, Seed: 1}), 2)
	if err != nil {
		t.Fatal(err)
	}
	acc, n := tm.Evaluate("app", "user", clf, 0.2)
	if n == 0 || acc < 0.9 {
		t.Fatalf("holdout accuracy %.2f over %d", acc, n)
	}
}

func TestTrainingModuleRetention(t *testing.T) {
	tm := NewTrainingModule()
	tm.SetRetention("app", 10)
	for i := 0; i < 50; i++ {
		tm.Ingest(&LabeledQuery{App: "app", SQL: "q"})
	}
	if tm.Size("app") != 10 {
		t.Fatalf("retention failed: %d", tm.Size("app"))
	}
}

func TestTrainingModuleNoData(t *testing.T) {
	tm := NewTrainingModule()
	if _, err := tm.Retrain("app", "user", stubEmbedder{4}, NewForestLabeler(forest.DefaultConfig()), 1); err == nil {
		t.Fatal("retrain without data must fail")
	}
}

func TestServiceTopology(t *testing.T) {
	s := NewService()
	var dbReceived int
	s.AddApplication("X", 8, func(q *LabeledQuery) { dbReceived++ })
	s.AddApplication("Y", 8, nil) // forked-only deployment
	if _, err := s.Submit("unknown", "select 1"); err == nil {
		t.Fatal("unknown app must fail")
	}
	// Shared embedder across two applications (Fig. 1's EmbedderA(X,Y)).
	shared := stubEmbedder{8}
	for _, app := range []string{"X", "Y"} {
		err := s.Deploy(app, &Classifier{LabelKey: "k", Embedder: shared,
			Labeler: &RuleLabeler{RuleName: "r", Rule: func(vec.Vector) string { return "ok" }}})
		if err != nil {
			t.Fatal(err)
		}
	}
	q, err := s.Submit("X", "select 1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Label("k") != "ok" || q.App != "X" {
		t.Fatalf("labeled query: %+v", q)
	}
	if dbReceived != 1 {
		t.Fatalf("forward count: %d", dbReceived)
	}
	if _, err := s.Submit("Y", "select 2"); err != nil {
		t.Fatal(err)
	}
	// Serving feeds neither application's training set.
	if s.Training().Size("X") != 0 || s.Training().Size("Y") != 0 {
		t.Fatalf("training sizes: %d/%d", s.Training().Size("X"), s.Training().Size("Y"))
	}
}

func TestServiceRetrainAndDeploy(t *testing.T) {
	s := NewService()
	s.AddApplication("X", 8, nil)
	for i := 0; i < 60; i++ {
		q := &LabeledQuery{SQL: "select aaa from t"}
		if i%2 == 1 {
			q.SQL = "delete from u zzz"
		}
		lbl := "reader"
		if i%2 == 1 {
			lbl = "writer"
		}
		q.SetLabel("role", lbl)
		q.App = "X"
		s.Training().Ingest(q)
	}
	clf, err := s.RetrainAndDeploy("X", "role", stubEmbedder{8}, NewForestLabeler(forest.Config{NumTrees: 10, Seed: 2}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if clf == nil {
		t.Fatal("no classifier returned")
	}
	q, err := s.Submit("X", "select aaa from t")
	if err != nil {
		t.Fatal(err)
	}
	if q.Label("role") != "reader" {
		t.Fatalf("deployed classifier mislabels: %q", q.Label("role"))
	}
}

// TestServingNeverFeedsTraining guards against self-training: an incumbent
// that predicts only "wrong" serves 1000 queries, yet the training set for
// its key holds exactly the ingested ground truth, and a retrain on it labels
// held-out queries with their true users.
func TestServingNeverFeedsTraining(t *testing.T) {
	s := NewService()
	s.AddApplication("X", 8, nil)
	wrong := &Classifier{LabelKey: "user", Embedder: stubEmbedder{8},
		Labeler: &RuleLabeler{RuleName: "wrong", Rule: func(vec.Vector) string { return "wrong" }}}
	if err := s.Deploy("X", wrong); err != nil {
		t.Fatal(err)
	}
	served := make([]string, 500)
	for i := range served {
		served[i] = fmt.Sprintf("select %d from t", i)
		if _, err := s.Submit("X", served[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SubmitBatch("X", served, 2); err != nil {
		t.Fatal(err)
	}
	truth := make([]*LabeledQuery, 100)
	for i := range truth {
		q := &LabeledQuery{SQL: fmt.Sprintf("select aaa%d from accounts", i)}
		q.SetLabel("user", "alice")
		if i%2 == 1 {
			q.SQL = fmt.Sprintf("delete from u where zzz = %d", i)
			q.SetLabel("user", "bob")
		}
		truth[i] = q
	}
	s.Training().IngestBatch("X", truth)
	set := s.Training().TrainingSet("X", "user")
	if len(set) != len(truth) {
		t.Fatalf("training set holds %d rows, want the %d ingested", len(set), len(truth))
	}
	for i, q := range set {
		if q.SQL != truth[i].SQL || q.Label("user") != truth[i].Label("user") {
			t.Fatalf("row %d = %q/%q, want %q/%q", i, q.SQL, q.Label("user"), truth[i].SQL, truth[i].Label("user"))
		}
	}
	if _, err := s.RetrainAndDeploy("X", "user", stubEmbedder{8}, &NearestCentroidLabeler{}, 2); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		"select aaa777 from accounts":  "alice",
		"delete from u where zzz = 77": "bob",
	} {
		q, err := s.Submit("X", sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.Label("user"); got != want {
			t.Fatalf("%q labeled %q, want %q", sql, got, want)
		}
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	corpus := [][]string{{"select", "a"}, {"insert", "b"}, {"select", "c"}}
	cfg := doc2vec.DefaultConfig()
	cfg.Dim = 8
	cfg.Epochs = 2
	cfg.MinCount = 1
	m, err := doc2vec.Train(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := reg.SaveDoc2Vec("m1", m)
	if err != nil || v1 != 1 {
		t.Fatalf("v1=%d err=%v", v1, err)
	}
	v2, err := reg.SaveDoc2Vec("m1", m)
	if err != nil || v2 != 2 {
		t.Fatalf("v2=%d err=%v", v2, err)
	}
	emb, ver, err := reg.LoadEmbedder("m1")
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 {
		t.Fatalf("latest version: %d", ver)
	}
	// The name is version-qualified: it keys the embedding plane and the
	// vector cache, and two versions of one model must never share vectors.
	if emb.Name() != "doc2vec(m1@v2)" {
		t.Fatalf("embedder name not version-qualified: %q", emb.Name())
	}
	if got := emb.Embed("select a"); len(got) != 8 {
		t.Fatalf("embed dim: %d", len(got))
	}
	if vs := reg.Versions("m1"); len(vs) != 2 {
		t.Fatalf("versions: %v", vs)
	}
	if models := reg.Models(); len(models) != 1 || models[0] != "m1" {
		t.Fatalf("models: %v", models)
	}
	if _, _, err := reg.LoadEmbedder("missing"); err == nil {
		t.Fatal("missing model must fail")
	}
}

func TestEmbedAllMatchesSequential(t *testing.T) {
	e := stubEmbedder{8}
	sqls := make([]string, 200)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("select %d from t%d", i, i%7)
	}
	par := EmbedAll(e, sqls, 8)
	for i, sql := range sqls {
		want := e.Embed(sql)
		for j := range want {
			if par[i][j] != want[j] {
				t.Fatalf("parallel embed differs at %d", i)
			}
		}
	}
}

func TestTokenizeForEmbedding(t *testing.T) {
	toks := TokenizeForEmbedding("SELECT A FROM T WHERE x = 42")
	if toks[0] != "select" || toks[1] != "a" {
		t.Fatalf("fold case: %v", toks)
	}
	// Literals preserved.
	found := false
	for _, tk := range toks {
		if tk == "42" {
			found = true
		}
	}
	if !found {
		t.Fatal("literals must be preserved for labeling signal")
	}
}
