package core

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"querc/internal/doc2vec"
	"querc/internal/ml/forest"
	"querc/internal/obs"
	"querc/internal/vec"
)

// countingEmbedder counts Embed calls — the instrument for proving the
// embed-once/label-many property.
type countingEmbedder struct {
	name string
	dim  int
	n    atomic.Int64
}

func (c *countingEmbedder) Embed(sql string) vec.Vector {
	c.n.Add(1)
	v := vec.New(c.dim)
	for i := 0; i < len(sql); i++ {
		v[int(sql[i])%c.dim]++
	}
	return v
}
func (c *countingEmbedder) Dim() int     { return c.dim }
func (c *countingEmbedder) Name() string { return c.name }

func ruleClassifier(key string, e Embedder) *Classifier {
	return &Classifier{LabelKey: key, Embedder: e,
		Labeler: &RuleLabeler{RuleName: key, Rule: func(v vec.Vector) string {
			return fmt.Sprintf("%s:%.0f", key, v[0])
		}}}
}

func TestProcessEmbedsOncePerSharedEmbedder(t *testing.T) {
	e := &countingEmbedder{name: "shared", dim: 8}
	w := NewQworker("app", 8)
	for _, key := range []string{"a", "b", "c", "d"} {
		w.Deploy(ruleClassifier(key, e))
	}
	q := w.Process(&LabeledQuery{SQL: "select 1"})
	if got := e.n.Load(); got != 1 {
		t.Fatalf("4 classifiers on one embedder must embed once, got %d", got)
	}
	for _, key := range []string{"a", "b", "c", "d"} {
		if q.Label(key) == "" {
			t.Fatalf("labeler %s missed the fanned-out vector", key)
		}
	}
	// Distinct embedder identities each embed for themselves.
	e2 := &countingEmbedder{name: "other", dim: 8}
	w.Deploy(ruleClassifier("e", e2))
	w.Process(&LabeledQuery{SQL: "select 2"})
	if e.n.Load() != 2 || e2.n.Load() != 1 {
		t.Fatalf("per-embedder counts: %d/%d", e.n.Load(), e2.n.Load())
	}
}

func TestProcessBatchEmbedsDistinctTextsOncePerEmbedder(t *testing.T) {
	e := &countingEmbedder{name: "shared", dim: 8}
	w := NewQworker("app", 16) // standalone worker: no shared cache
	w.Deploy(ruleClassifier("x", e))
	w.Deploy(ruleClassifier("y", e))
	qs := make([]*LabeledQuery, 400)
	for i := range qs {
		qs[i] = &LabeledQuery{SQL: fmt.Sprintf("select %d", i%50)} // heavy repeats
	}
	w.ProcessBatch(qs, 1) // single worker: the count is exact
	if got := e.n.Load(); got != 50 {
		t.Fatalf("distinct texts must embed once for the whole batch: %d", got)
	}
	for i, q := range qs {
		if q.Label("x") == "" || q.Label("y") == "" {
			t.Fatalf("labels missing at %d: %+v", i, q)
		}
	}
}

// countingLabeler counts Label calls — the instrument for the per-batch
// label memo.
type countingLabeler struct {
	n atomic.Int64
}

func (c *countingLabeler) Label(v vec.Vector) string {
	c.n.Add(1)
	return fmt.Sprintf("%.0f", v[0])
}
func (c *countingLabeler) Name() string { return "counting" }

func TestProcessBatchLabelsDistinctTextsOnce(t *testing.T) {
	e := &countingEmbedder{name: "shared", dim: 8}
	lab := &countingLabeler{}
	w := NewQworker("app", 16)
	w.Deploy(&Classifier{LabelKey: "k", Embedder: e, Labeler: lab})
	qs := make([]*LabeledQuery, 400)
	for i := range qs {
		qs[i] = &LabeledQuery{SQL: fmt.Sprintf("select %d", i%50)}
	}
	w.ProcessBatch(qs, 1) // single worker: counts are exact
	if got := lab.n.Load(); got != 50 {
		t.Fatalf("distinct texts must be labeled once per batch: %d", got)
	}
	for i, q := range qs {
		if q.Label("k") == "" {
			t.Fatalf("label missing at %d", i)
		}
	}
}

func TestVectorCacheSharedAcrossApplications(t *testing.T) {
	s := NewService()
	s.AddApplication("tenantA", 8, nil)
	s.AddApplication("tenantB", 8, nil)
	e := &countingEmbedder{name: "central", dim: 8}
	for _, app := range []string{"tenantA", "tenantB"} {
		if err := s.Deploy(app, ruleClassifier("k", e)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit("tenantA", "select shared"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("tenantB", "select shared"); err != nil {
		t.Fatal(err)
	}
	if got := e.n.Load(); got != 1 {
		t.Fatalf("tenantB must hit tenantA's warm vector, embeds=%d", got)
	}
	st := s.VectorCache().Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
	// Disabling the cache makes each app embed for itself again.
	s.SetVectorCache(nil)
	s.Submit("tenantA", "select shared")
	s.Submit("tenantB", "select shared")
	if got := e.n.Load(); got != 3 {
		t.Fatalf("uncached submits must embed per app: %d", got)
	}
}

// TestDeploySharedEmbedderDuringProcessBatch hot-deploys a second classifier
// onto an embedder that a running batch is already sharing; run with -race.
func TestDeploySharedEmbedderDuringProcessBatch(t *testing.T) {
	s := NewService()
	w := s.AddApplication("app", 16, nil)
	e := &countingEmbedder{name: "shared", dim: 8}
	w.Deploy(ruleClassifier("k0", e))
	qs := make([]*LabeledQuery, 3000)
	for i := range qs {
		qs[i] = &LabeledQuery{SQL: fmt.Sprintf("q%d", i%97)}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 100; i++ {
			w.Deploy(ruleClassifier(fmt.Sprintf("k%d", i%4), e))
		}
	}()
	w.ProcessBatch(qs, 4)
	<-done
	if w.Processed() != 3000 {
		t.Fatalf("processed: %d", w.Processed())
	}
	for _, q := range qs {
		if q.Label("k0") == "" {
			t.Fatal("query missed the k0 annotation during hot deploy")
		}
	}
}

// TestCachedUncachedLabelEquivalence proves the plane changes performance,
// not answers: the same workload labeled with the shared cache enabled
// (twice, so the second pass is all warm vectors) and with caching disabled
// must produce byte-identical labels.
func TestCachedUncachedLabelEquivalence(t *testing.T) {
	corpus := make([]string, 0, 60)
	for i := 0; i < 30; i++ {
		corpus = append(corpus, fmt.Sprintf("select a%d from t where id = %d", i%7, i))
		corpus = append(corpus, fmt.Sprintf("insert into u values (%d)", i))
	}
	cfg := doc2vec.DefaultConfig()
	cfg.Dim = 8
	cfg.Epochs = 2
	cfg.MinCount = 1
	emb, err := NewDoc2VecEmbedder("equiv", corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lab := &NearestCentroidLabeler{}
	y := make([]string, len(corpus))
	for i := range corpus {
		y[i] = fmt.Sprintf("c%d", i%3)
	}
	if err := lab.Fit(EmbedAll(emb, corpus, 2), y); err != nil {
		t.Fatal(err)
	}
	workload := append(append([]string(nil), corpus...), corpus[:20]...)

	mk := func(cached bool) *Service {
		s := NewService()
		s.AddApplication("app", 16, nil)
		if !cached {
			s.SetVectorCache(nil)
		}
		s.Deploy("app", &Classifier{LabelKey: "user", Embedder: emb, Labeler: lab})
		s.Deploy("app", &Classifier{LabelKey: "shadow", Embedder: emb, Labeler: lab})
		return s
	}
	runTwice := func(s *Service) []*LabeledQuery {
		if _, err := s.SubmitBatch("app", workload, 4); err != nil {
			t.Fatal(err)
		}
		out, err := s.SubmitBatch("app", workload, 4) // cached run: all warm
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cachedOut := runTwice(mk(true))
	uncachedOut := runTwice(mk(false))
	for i := range workload {
		for _, key := range []string{"user", "shadow"} {
			c, u := cachedOut[i].Label(key), uncachedOut[i].Label(key)
			if c == "" || c != u {
				t.Fatalf("label %q diverged at %d: cached=%q uncached=%q", key, i, c, u)
			}
		}
	}
}

func TestServiceAppsSorted(t *testing.T) {
	s := NewService()
	for _, app := range []string{"zeta", "alpha", "mid", "beta"} {
		s.AddApplication(app, 4, nil)
	}
	want := []string{"alpha", "beta", "mid", "zeta"}
	for trial := 0; trial < 5; trial++ {
		got := s.Apps()
		if len(got) != len(want) {
			t.Fatalf("apps: %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("apps not sorted: %v", got)
			}
		}
	}
}

func TestEmbedAllCached(t *testing.T) {
	e := &countingEmbedder{name: "e", dim: 8}
	cache := NewVectorCache(64, 2)
	sqls := make([]string, 90)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("select %d", i%30)
	}
	out := EmbedAllCached(e, sqls, 2, cache)
	if len(out) != len(sqls) {
		t.Fatalf("output length: %d", len(out))
	}
	if got := e.n.Load(); got != 30 {
		t.Fatalf("distinct texts must embed once: %d", got)
	}
	// Alignment: duplicates share the vector of their text.
	for i, sql := range sqls {
		want, _ := cache.Get("e", sql)
		if &out[i][0] != &want[0] {
			t.Fatalf("output %d not aligned with cache entry", i)
		}
	}
	// Second call is fully warm.
	EmbedAllCached(e, sqls, 2, cache)
	if got := e.n.Load(); got != 30 {
		t.Fatalf("warm pass must not embed: %d", got)
	}
	// Nil cache still dedupes within the call.
	e2 := &countingEmbedder{name: "e2", dim: 8}
	EmbedAllCached(e2, sqls, 2, nil)
	if got := e2.n.Load(); got != 30 {
		t.Fatalf("nil-cache dedupe: %d", got)
	}
}

// batchCountingEmbedder implements BatchEmbedder and records how work
// arrives.
type batchCountingEmbedder struct {
	countingEmbedder
	batches atomic.Int64
}

func (b *batchCountingEmbedder) EmbedBatch(sqls []string) []vec.Vector {
	b.batches.Add(1)
	out := make([]vec.Vector, len(sqls))
	for i, sql := range sqls {
		out[i] = b.Embed(sql)
	}
	return out
}

func TestEmbedTextsUsesBatchPath(t *testing.T) {
	be := &batchCountingEmbedder{countingEmbedder: countingEmbedder{name: "b", dim: 4}}
	out := EmbedTexts(be, []string{"a", "b", "c"})
	if len(out) != 3 || be.batches.Load() != 1 {
		t.Fatalf("batch path not taken: %d batches", be.batches.Load())
	}
	plain := &countingEmbedder{name: "p", dim: 4}
	if got := EmbedTexts(plain, []string{"a", "b"}); len(got) != 2 || plain.n.Load() != 2 {
		t.Fatal("plain path must loop Embed")
	}
}

func TestGroupByEmbedder(t *testing.T) {
	shared := &countingEmbedder{name: "s", dim: 4}
	other := &countingEmbedder{name: "o", dim: 4}
	groups := groupByEmbedder([]*Classifier{
		ruleClassifier("a", shared),
		ruleClassifier("b", other),
		ruleClassifier("c", shared),
	})
	if len(groups) != 2 {
		t.Fatalf("groups: %d", len(groups))
	}
	if groups[0].name != "s" || len(groups[0].clfs) != 2 {
		t.Fatalf("shared group: %+v", groups[0])
	}
	if groups[1].name != "o" || len(groups[1].clfs) != 1 {
		t.Fatalf("other group: %+v", groups[1])
	}
}

// TestRetrainSharedEmbedderEmbedsOnce: two labelers retrained against one
// embedder embed the training set once — the training-module half of the
// embedding plane.
func TestRetrainSharedEmbedderEmbedsOnce(t *testing.T) {
	s := NewService()
	s.AddApplication("app", 8, nil)
	for i := 0; i < 80; i++ {
		q := &LabeledQuery{App: "app", SQL: fmt.Sprintf("select %d", i%20)}
		q.SetLabel("u", fmt.Sprintf("u%d", i%2))
		q.SetLabel("r", fmt.Sprintf("r%d", i%2))
		s.Training().Ingest(q)
	}
	e := &countingEmbedder{name: "central", dim: 8}
	if _, err := s.Training().Retrain("app", "u", e, &NearestCentroidLabeler{}, 2); err != nil {
		t.Fatal(err)
	}
	after := e.n.Load()
	if after != 20 {
		t.Fatalf("first retrain must embed each distinct text once: %d", after)
	}
	if _, err := s.Training().Retrain("app", "r", e, &NearestCentroidLabeler{}, 2); err != nil {
		t.Fatal(err)
	}
	if e.n.Load() != after {
		t.Fatalf("second labeler on the same embedder must reuse warm vectors: %d", e.n.Load())
	}
	// Evaluate rides the same warm path.
	clf, err := s.Training().Retrain("app", "u", e, &NearestCentroidLabeler{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if acc, n := s.Training().Evaluate("app", "u", clf, 0.25); n == 0 || acc < 0 {
		t.Fatalf("evaluate: %v/%d", acc, n)
	}
	if e.n.Load() != after {
		t.Fatalf("evaluate must not re-embed cached texts: %d", e.n.Load())
	}
}

// tokenEmbedder implements TokenizedEmbedder with call counters, the
// instrument for the tokenize-once plane. Counters are plain ints: the
// tests below drive it from a single goroutine (Process, or ProcessBatch
// with one worker).
type tokenEmbedder struct {
	name                                string
	dim                                 int
	stringCalls, tokenCalls, batchCalls int
	batchDocs                           int        // total docs seen by EmbedTokensBatch
	seen                                [][]string // token slices received, in call order
}

func (e *tokenEmbedder) embedTokens(tokens []string) vec.Vector {
	v := vec.New(e.dim)
	for _, tok := range tokens {
		for i := 0; i < len(tok); i++ {
			v[int(tok[i])%e.dim]++
		}
	}
	return v
}

func (e *tokenEmbedder) Embed(sql string) vec.Vector {
	e.stringCalls++
	return e.embedTokens(TokenizeForEmbedding(sql))
}

func (e *tokenEmbedder) EmbedTokens(tokens []string) vec.Vector {
	e.tokenCalls++
	e.seen = append(e.seen, tokens)
	return e.embedTokens(tokens)
}

func (e *tokenEmbedder) EmbedTokensBatch(docs [][]string) []vec.Vector {
	e.batchCalls++
	e.batchDocs += len(docs)
	out := make([]vec.Vector, len(docs))
	for i, d := range docs {
		out[i] = e.embedTokens(d)
	}
	return out
}

func (e *tokenEmbedder) Dim() int     { return e.dim }
func (e *tokenEmbedder) Name() string { return e.name }

// TestProcessTokenizesOncePerSubmit: with two distinct tokenized embedders
// deployed, a submit lexes the query text once and hands the same token
// slice to both; the string Embed path is never taken.
func TestProcessTokenizesOncePerSubmit(t *testing.T) {
	e1 := &tokenEmbedder{name: "tok1", dim: 8}
	e2 := &tokenEmbedder{name: "tok2", dim: 8}
	w := NewQworker("app", 8) // standalone worker: no shared cache
	w.Deploy(ruleClassifier("a", e1))
	w.Deploy(ruleClassifier("b", e2))
	sql := "SELECT a FROM t WHERE x = 1"
	q := w.Process(&LabeledQuery{SQL: sql})
	if e1.tokenCalls != 1 || e2.tokenCalls != 1 || e1.stringCalls != 0 || e2.stringCalls != 0 {
		t.Fatalf("tokenized embedders must get the token path: %+v %+v", e1, e2)
	}
	if q.Label("a") == "" || q.Label("b") == "" {
		t.Fatal("labels missing")
	}
	want := TokenizeForEmbedding(sql)
	if len(e1.seen[0]) != len(want) || len(want) == 0 {
		t.Fatalf("tokens: %v want %v", e1.seen[0], want)
	}
	for i := range want {
		if e1.seen[0][i] != want[i] {
			t.Fatalf("tokens differ from canonical normalization at %d", i)
		}
	}
	// Both embedders received the same backing slice: lexed once per submit.
	if &e1.seen[0][0] != &e2.seen[0][0] {
		t.Fatal("query must be tokenized once per submit, not once per embedder")
	}
}

// TestProcessBatchUsesTokenizedBatchPath: cache-missed texts are lexed and
// embedded once per distinct text via the pre-tokenized path — serially on
// the batch worker's goroutine, not through a nested EmbedTokensBatch pool
// (ProcessBatch already runs one worker per core).
func TestProcessBatchUsesTokenizedBatchPath(t *testing.T) {
	e := &tokenEmbedder{name: "tok", dim: 8}
	w := NewQworker("app", 16) // no shared cache
	w.Deploy(ruleClassifier("x", e))
	qs := make([]*LabeledQuery, 200)
	for i := range qs {
		qs[i] = &LabeledQuery{SQL: fmt.Sprintf("select %d from t", i%40)}
	}
	w.ProcessBatch(qs, 1)
	if e.stringCalls != 0 || e.batchCalls != 0 {
		t.Fatalf("batch path must use per-doc EmbedTokens: %+v", e)
	}
	if e.tokenCalls != 40 {
		t.Fatalf("distinct texts embedded: %d want 40", e.tokenCalls)
	}
	for i, q := range qs {
		if q.Label("x") == "" {
			t.Fatalf("label missing at %d", i)
		}
	}
}

// TestTokenizedPathLabelEquivalence: hiding the tokenized fast path behind a
// plain Embedder must not change a single label — the plane is a pure
// optimization.
func TestTokenizedPathLabelEquivalence(t *testing.T) {
	sqls := make([]string, 60)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("select c%d from t%d where x = %d", i%7, i%5, i%11)
	}
	cfg := doc2vec.DefaultConfig()
	cfg.Dim = 8
	cfg.Epochs = 2
	cfg.Workers = 1
	emb, err := NewDoc2VecEmbedder("equiv", sqls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(e Embedder) []*LabeledQuery {
		w := NewQworker("app", 16)
		w.Deploy(ruleClassifier("k", e))
		qs := make([]*LabeledQuery, len(sqls))
		for i, sql := range sqls {
			qs[i] = &LabeledQuery{SQL: sql}
		}
		return w.ProcessBatch(qs, 1)
	}
	tokenized := run(emb)
	plain := run(stringOnlyEmbedder{emb})
	for i := range sqls {
		if tokenized[i].Label("k") != plain[i].Label("k") {
			t.Fatalf("labels diverge at %d: %q vs %q", i, tokenized[i].Label("k"), plain[i].Label("k"))
		}
	}
}

// stringOnlyEmbedder hides the TokenizedEmbedder (and BatchEmbedder) fast
// paths of its inner embedder.
type stringOnlyEmbedder struct{ inner Embedder }

func (s stringOnlyEmbedder) Embed(sql string) vec.Vector { return s.inner.Embed(sql) }
func (s stringOnlyEmbedder) Dim() int                    { return s.inner.Dim() }
func (s stringOnlyEmbedder) Name() string                { return s.inner.Name() }

// TestProcessNeverSharesTraces: every annotation begins a fresh trace, so two
// queries never alias one trace and re-processing a query settles its new
// trace exactly once.
func TestProcessNeverSharesTraces(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1})
	w := NewQworker("app", 8)
	w.SetTracer(tracer)
	w.Deploy(ruleClassifier("k", &countingEmbedder{name: "e", dim: 8}))
	q1 := &LabeledQuery{SQL: "select 1"}
	q2 := &LabeledQuery{SQL: "select 2"}
	w.Process(q1)
	w.Process(q2)
	if q1.Trace() == nil || q1.Trace() == q2.Trace() {
		t.Fatalf("queries share a trace: %p %p", q1.Trace(), q2.Trace())
	}
	w.Process(q1)
	// Repeats within a batch are distinct queries with traces of their own.
	r1, r2 := &LabeledQuery{SQL: "select 1"}, &LabeledQuery{SQL: "select 1"}
	w.ProcessBatch([]*LabeledQuery{r1, r2}, 1)
	if r1.Trace() == nil || r1.Trace() == r2.Trace() {
		t.Fatal("batch repeats share a trace")
	}
	st := tracer.Stats()
	if st.Begun != 5 || st.Annotated != st.Begun || st.DoubleSettles != 0 {
		t.Fatalf("trace ledger: %+v", st)
	}
}

// TestStageSpansOnBothEntryPoints: the per-stage spans land on sampled
// queries whichever entry point annotated them.
func TestStageSpansOnBothEntryPoints(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1, RingSize: 512})
	w := NewQworker("app", 8)
	w.SetVectorCache(NewVectorCache(0, 0))
	w.SetTracer(tracer)
	w.Deploy(ruleClassifier("k", &tokenEmbedder{name: "tok", dim: 8}))
	latest := func() obs.TraceRecord { return tracer.Records(obs.TraceQuery{N: 1})[0] }

	w.Process(&LabeledQuery{SQL: "select a from t where x = 1"})
	if r := latest(); r.TokenizeNs <= 0 || r.EmbedNs <= 0 || r.LabelNs <= 0 || r.CacheHit {
		t.Fatalf("cold Process spans: %+v", r)
	}
	w.Process(&LabeledQuery{SQL: "select a from t where x = 1"})
	if r := latest(); !r.CacheHit || r.EmbedNs != 0 {
		t.Fatalf("warm Process spans: %+v", r)
	}

	qs := make([]*LabeledQuery, 200)
	for i := range qs {
		qs[i] = &LabeledQuery{SQL: fmt.Sprintf("select c%d from t where y = %d", i%9, i)}
	}
	w.ProcessBatch(qs, 1)
	recs := tracer.Records(obs.TraceQuery{N: len(qs)})
	if len(recs) != len(qs) {
		t.Fatalf("batch records: %d", len(recs))
	}
	for _, r := range recs {
		if r.TokenizeNs <= 0 || r.EmbedNs <= 0 || r.LabelNs <= 0 {
			t.Fatalf("cold ProcessBatch spans: %+v", r)
		}
	}
}

// TestDriftSampleBatchSerialParity: a batch and the same queries submitted
// one at a time leave the drift plane the same interval sample.
func TestDriftSampleBatchSerialParity(t *testing.T) {
	ea := &countingEmbedder{name: "a", dim: 8}
	eb := &countingEmbedder{name: "b", dim: 8}
	mk := func() *Qworker {
		s := NewService()
		w := s.AddApplication("app", 16, nil)
		w.SetDriftSampling(true)
		w.Deploy(ruleClassifier("x", ea))
		w.Deploy(ruleClassifier("y", ea))
		w.Deploy(ruleClassifier("z", eb))
		return w
	}
	qs := func() []*LabeledQuery {
		out := make([]*LabeledQuery, 400)
		for i := range out {
			out[i] = &LabeledQuery{SQL: fmt.Sprintf("select %d from t%d", i%50, i%5)} // 50 distinct
		}
		return out
	}
	serial, batch := mk(), mk()
	for _, q := range qs() {
		serial.Process(q)
	}
	batch.ProcessBatch(qs(), 4)
	want, got := serial.TakeDriftSample(), batch.TakeDriftSample()
	if want.Queries != 400 || got.Queries != want.Queries || got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses {
		t.Fatalf("counts: serial %d/%d/%d batch %d/%d/%d", want.Queries, want.CacheHits, want.CacheMisses,
			got.Queries, got.CacheHits, got.CacheMisses)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("labels: serial %v batch %v", want.Labels, got.Labels)
	}
	for name, ws := range want.Embedders {
		gs := got.Embedders[name]
		if gs.Count != ws.Count || math.Abs(gs.SqNorm-ws.SqNorm) > 1e-9 {
			t.Fatalf("embedder %s: serial %+v batch %+v", name, ws, gs)
		}
		for i := range ws.Centroid {
			if math.Abs(gs.Centroid[i]-ws.Centroid[i]) > 1e-9 {
				t.Fatalf("embedder %s centroid[%d]: serial %v batch %v", name, i, ws.Centroid, gs.Centroid)
			}
		}
	}
	if len(got.Embedders) != 2 || len(want.Embedders) != 2 {
		t.Fatalf("embedders: serial %d batch %d", len(want.Embedders), len(got.Embedders))
	}
}

// TestSubmitAllocsWarmCache pins the exact allocation count of the
// per-query Submit path when the embedding plane hits the shared vector
// cache. The 6 are: the submitted LabeledQuery (1); its labels map, header
// plus first group on SetLabel (2); and the test labeler's fmt.Sprintf, two
// boxed operands plus the result string (3). No tokenization, no embedding,
// and no copy for the training module.
func TestSubmitAllocsWarmCache(t *testing.T) {
	if vec.RaceEnabled {
		t.Skip("allocation profile differs under the race detector")
	}
	s := NewService()
	s.AddApplication("app", 64, nil)
	e := &tokenEmbedder{name: "tok", dim: 8}
	if err := s.Deploy("app", ruleClassifier("k", e)); err != nil {
		t.Fatal(err)
	}
	sql := "select a from t where x = 1"
	if _, err := s.Submit("app", sql); err != nil {
		t.Fatal(err) // warms the vector cache
	}
	tokenCallsAfterWarm := e.tokenCalls
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Submit("app", sql); err != nil {
			t.Fatal(err)
		}
	})
	if e.tokenCalls != tokenCallsAfterWarm {
		t.Fatal("warm-cache submits must not re-embed")
	}
	if allocs > 6 {
		t.Fatalf("warm-cache Submit allocates %.1f per query, want <= 6", allocs)
	}
}

// TestLabelVectorAllocsForest pins the exact allocation count of one
// Classifier.LabelVector on a trained forest labeler writing a label key the
// query already carries: the forest's per-call vote slice (1), nothing else.
func TestLabelVectorAllocsForest(t *testing.T) {
	if vec.RaceEnabled {
		t.Skip("allocation profile differs under the race detector")
	}
	fl := NewForestLabeler(forest.Config{NumTrees: 10, Seed: 1})
	var X []vec.Vector
	var y []string
	for i := 0; i < 90; i++ {
		v := vec.New(4)
		v[i%3] = 1
		v[3] = float64(i%7) / 7
		X = append(X, v)
		y = append(y, fmt.Sprintf("class%d", i%3))
	}
	if err := fl.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	c := &Classifier{LabelKey: "k", Embedder: stubEmbedder{4}, Labeler: fl}
	q := &LabeledQuery{SQL: "select 1"}
	c.LabelVector(q, X[0]) // the label map and key exist from here on
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		c.LabelVector(q, X[i%len(X)])
		i++
	})
	if allocs > 1 {
		t.Fatalf("forest LabelVector allocates %.1f per call, want <= 1", allocs)
	}
}
