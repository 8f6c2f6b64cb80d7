package apps

import (
	"fmt"
	"strings"
	"testing"

	"querc/internal/core"
	"querc/internal/ml/forest"
	"querc/internal/snowgen"
	"querc/internal/tpch"
	"querc/internal/vec"
)

// hashEmbedder is a fast deterministic stand-in for a learned embedder:
// token-hash bag-of-words. Good enough to carry label signal in tests.
type hashEmbedder struct{ dim int }

func (h hashEmbedder) Embed(sql string) vec.Vector {
	v := vec.New(h.dim)
	for _, tok := range core.TokenizeForEmbedding(sql) {
		hv := 2166136261
		for i := 0; i < len(tok); i++ {
			hv = (hv ^ int(tok[i])) * 16777619
			hv &= 0x7fffffff
		}
		v[hv%h.dim]++
	}
	v.Normalize()
	return v
}
func (h hashEmbedder) Dim() int     { return h.dim }
func (h hashEmbedder) Name() string { return "hash" }

func snowWorkload(t *testing.T) []snowgen.Query {
	t.Helper()
	return snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "a1", Users: 3, Queries: 300, SharedFraction: 0, Dialect: snowgen.DialectSnow},
			{Name: "a2", Users: 3, Queries: 300, SharedFraction: 0, Dialect: snowgen.DialectAnsi},
		},
		Seed: 9,
	})
}

func TestSummarizerCoversTemplates(t *testing.T) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 8, Seed: 3})
	sqls := tpch.SQLTexts(insts)
	s := &Summarizer{Embedder: hashEmbedder{64}, MaxK: 30, Seed: 1, Workers: 4}
	res, err := s.Summarize(sqls)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Indices) == 0 || len(res.Indices) != len(res.Weights) {
		t.Fatalf("summary shape: %+v", res)
	}
	total := 0
	for _, w := range res.Weights {
		if w <= 0 {
			t.Fatalf("non-positive weight: %v", res.Weights)
		}
		total += w
	}
	if total != len(sqls) {
		t.Fatalf("weights must partition the workload: %d vs %d", total, len(sqls))
	}
	// Representatives should span many templates.
	seen := map[int]bool{}
	for _, idx := range res.Indices {
		seen[insts[idx].Template] = true
	}
	if len(seen) < 8 {
		t.Fatalf("summary covers only %d templates", len(seen))
	}
}

func TestSummarizerEmpty(t *testing.T) {
	s := &Summarizer{Embedder: hashEmbedder{16}}
	if _, err := s.Summarize(nil); err == nil {
		t.Fatal("empty workload must fail")
	}
}

func TestBaselineSummarizer(t *testing.T) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 3, Seed: 4})
	sqls := tpch.SQLTexts(insts)
	b := &BaselineSummarizer{K: 10, Seed: 2}
	res, err := b.Summarize(sqls)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 10 || len(res.Indices) != 10 {
		t.Fatalf("baseline summary: %+v", res)
	}
	total := 0
	for _, w := range res.Weights {
		total += w
	}
	if total != len(sqls) {
		t.Fatalf("baseline weights: %d vs %d", total, len(sqls))
	}
}

func TestSecurityAuditorFlagsImpostor(t *testing.T) {
	qs := snowWorkload(t)
	var sqls, users []string
	for _, q := range qs {
		sqls = append(sqls, q.SQL)
		users = append(users, q.User)
	}
	a := NewSecurityAuditor(hashEmbedder{96}, forest.Config{NumTrees: 20, Seed: 1})
	a.MinConfidence = 0 // mismatches only
	if err := a.Train(sqls, users); err != nil {
		t.Fatal(err)
	}
	// Clean stream: few findings expected.
	clean, err := a.Audit(sqls[:100], users[:100])
	if err != nil {
		t.Fatal(err)
	}
	// Impostor stream: account a2's queries claimed by an a1 user.
	a1User := ""
	for _, q := range qs {
		if q.Account == "a1" {
			a1User = q.User
			break
		}
	}
	var impostorSQL []string
	var claimed []string
	for _, q := range qs {
		if q.Account == "a2" {
			impostorSQL = append(impostorSQL, q.SQL)
			claimed = append(claimed, a1User)
		}
		if len(impostorSQL) == 100 {
			break
		}
	}
	sus, err := a.Audit(impostorSQL, claimed)
	if err != nil {
		t.Fatal(err)
	}
	if len(sus) <= len(clean) {
		t.Fatalf("impostor stream should raise more findings: %d vs %d", len(sus), len(clean))
	}
	if float64(len(sus)) < 0.8*float64(len(impostorSQL)) {
		t.Fatalf("impostor detection too weak: %d of %d", len(sus), len(impostorSQL))
	}
}

func TestRoutingCheckerFindsMisconfig(t *testing.T) {
	qs := snowWorkload(t)
	var sqls, clusters []string
	for _, q := range qs {
		sqls = append(sqls, q.SQL)
		clusters = append(clusters, q.Cluster)
	}
	r := NewRoutingChecker(hashEmbedder{96}, forest.Config{NumTrees: 20, Seed: 2})
	if err := r.Train(sqls, clusters); err != nil {
		t.Fatal(err)
	}
	// Misroute 20 queries and expect most to be flagged.
	bad := append([]string(nil), clusters[:200]...)
	misrouted := 0
	for i := 0; i < 200; i += 10 {
		bad[i] = "cluster_bogus"
		misrouted++
	}
	findings, err := r.Check(sqls[:200], bad)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, f := range findings {
		if f.Assigned == "cluster_bogus" {
			hits++
		}
	}
	if hits < misrouted/2 {
		t.Fatalf("found %d of %d misroutes", hits, misrouted)
	}
}

func TestErrorPredictorLearnsSyntaxPattern(t *testing.T) {
	// Synthesize a workload where a syntax pattern deterministically fails.
	var sqls, codes []string
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			sqls = append(sqls, fmt.Sprintf("select big_udf(x%d) from giant_table join t2 join t3", i))
			codes = append(codes, "OUT_OF_MEMORY")
		} else {
			sqls = append(sqls, fmt.Sprintf("select a from small_t where id = %d", i))
			codes = append(codes, "")
		}
	}
	p := NewErrorPredictor(hashEmbedder{64}, forest.Config{NumTrees: 20, Seed: 3})
	if err := p.Train(sqls, codes); err != nil {
		t.Fatal(err)
	}
	risky, pred := p.Risky("select big_udf(x999) from giant_table join t2 join t3", 0.5)
	if !risky || pred != "OUT_OF_MEMORY" {
		t.Fatalf("risky query missed: %v %q", risky, pred)
	}
	risky, _ = p.Risky("select a from small_t where id = 5", 0.5)
	if risky {
		t.Fatal("safe query flagged")
	}
}

func TestResourceAllocatorBucketsBalanced(t *testing.T) {
	var sqls []string
	var runtimes []float64
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			sqls = append(sqls, fmt.Sprintf("select a from t where id = %d", i))
			runtimes = append(runtimes, 10)
		case 1:
			sqls = append(sqls, fmt.Sprintf("select a, sum(b) from t join u group by a -- %d", i))
			runtimes = append(runtimes, 100)
		default:
			sqls = append(sqls, fmt.Sprintf("select * from t join u join v join w order by 1 -- %d", i))
			runtimes = append(runtimes, 1000)
		}
	}
	r := NewResourceAllocator(hashEmbedder{64}, forest.Config{NumTrees: 20, Seed: 4})
	if err := r.Train(sqls, runtimes); err != nil {
		t.Fatal(err)
	}
	if r.TrueClass(5) != ClassLight || r.TrueClass(1000) != ClassHeavy {
		t.Fatalf("cut points wrong: %v %v", r.LightMax, r.MediumMax)
	}
	cls, conf := r.Predict("select * from t join u join v join w order by 1 -- 999")
	if cls != ClassHeavy || conf < 0.4 {
		t.Fatalf("heavy query predicted %v (%.2f)", cls, conf)
	}
	cls, _ = r.Predict("select a from t where id = 12345")
	if cls != ClassLight {
		t.Fatalf("light query predicted %v", cls)
	}
}

// TestResourceAllocatorBoundaryTies pins the tertile cut-point contract:
// boundaries are the last value of each lower bucket, so a runtime exactly
// on a cut point classifies into the lower class (stable under ties).
func TestResourceAllocatorBoundaryTies(t *testing.T) {
	var sqls []string
	var runtimes []float64
	for i := 0; i < 9; i++ {
		sqls = append(sqls, fmt.Sprintf("select a from t -- %d", i))
		runtimes = append(runtimes, []float64{10, 100, 1000}[i/3])
	}
	r := NewResourceAllocator(hashEmbedder{32}, forest.Config{NumTrees: 5, Seed: 1})
	if err := r.Train(sqls, runtimes); err != nil {
		t.Fatal(err)
	}
	if r.LightMax != 10 || r.MediumMax != 100 {
		t.Fatalf("cut points: light<=%v medium<=%v", r.LightMax, r.MediumMax)
	}
	for _, tc := range []struct {
		runtime float64
		want    ResourceClass
	}{
		{10, ClassLight}, // exactly on the light boundary → lower class
		{10.01, ClassMedium},
		{100, ClassMedium}, // exactly on the medium boundary → lower class
		{100.01, ClassHeavy},
		{0, ClassLight},
		{1e9, ClassHeavy},
	} {
		if got := r.TrueClass(tc.runtime); got != tc.want {
			t.Fatalf("TrueClass(%v) = %v, want %v", tc.runtime, got, tc.want)
		}
	}
}

// TestResourceAllocatorTinyTrainingSets pins the n<3 degenerate tertiles:
// both cut points collapse onto the same value, everything at or below it is
// light, everything above is heavy, and training still succeeds.
func TestResourceAllocatorTinyTrainingSets(t *testing.T) {
	r1 := NewResourceAllocator(hashEmbedder{32}, forest.Config{NumTrees: 5, Seed: 2})
	if err := r1.Train([]string{"select a from t"}, []float64{50}); err != nil {
		t.Fatalf("n=1: %v", err)
	}
	if r1.LightMax != 50 || r1.MediumMax != 50 {
		t.Fatalf("n=1 cut points: %v %v", r1.LightMax, r1.MediumMax)
	}
	if r1.TrueClass(50) != ClassLight || r1.TrueClass(51) != ClassHeavy {
		t.Fatalf("n=1 classes: %v %v", r1.TrueClass(50), r1.TrueClass(51))
	}
	if cls, _ := r1.Predict("select a from t"); cls != ClassLight {
		t.Fatalf("n=1 predict: %v", cls)
	}

	r2 := NewResourceAllocator(hashEmbedder{32}, forest.Config{NumTrees: 5, Seed: 3})
	if err := r2.Train([]string{"select a from t", "select b from u"}, []float64{30, 70}); err != nil {
		t.Fatalf("n=2: %v", err)
	}
	// sorted = [30, 70]: i1 = 2/3-1 < 0 → 0, i2 = 4/3-1 = 0 → both 30.
	if r2.LightMax != 30 || r2.MediumMax != 30 {
		t.Fatalf("n=2 cut points: %v %v", r2.LightMax, r2.MediumMax)
	}
	if r2.TrueClass(30) != ClassLight || r2.TrueClass(70) != ClassHeavy {
		t.Fatalf("n=2 classes: %v %v", r2.TrueClass(30), r2.TrueClass(70))
	}

	// Empty and mismatched sets must fail, not degenerate.
	if err := r2.Train(nil, nil); err == nil {
		t.Fatal("empty training set must fail")
	}
	if err := r2.Train([]string{"a"}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

// TestResourceAllocatorTrainingAgreement pins that on separable training
// data, Predict agrees with TrueClass on the training rows themselves — the
// labeler learns the buckets the cut points define, from syntax alone.
func TestResourceAllocatorTrainingAgreement(t *testing.T) {
	var sqls []string
	var runtimes []float64
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			sqls = append(sqls, fmt.Sprintf("select a from t where id = %d", i))
			runtimes = append(runtimes, 10+float64(i%7))
		case 1:
			sqls = append(sqls, fmt.Sprintf("select a, sum(b) from t join u group by a -- %d", i))
			runtimes = append(runtimes, 100+float64(i%7))
		default:
			sqls = append(sqls, fmt.Sprintf("select * from t join u join v join w order by 1 -- %d", i))
			runtimes = append(runtimes, 1000+float64(i%7))
		}
	}
	r := NewResourceAllocator(hashEmbedder{64}, forest.Config{NumTrees: 20, Seed: 5})
	if err := r.Train(sqls, runtimes); err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, sql := range sqls {
		pred, _ := r.Predict(sql)
		if pred == r.TrueClass(runtimes[i]) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(sqls)); frac < 0.95 {
		t.Fatalf("training-set agreement %.2f, want >= 0.95", frac)
	}
}

// TestLabelingAppsDeployUnderTheirKeys: each labeling app's deployable
// classifier writes the app's own label key, and labels queries exactly as
// the app's own prediction method does.
func TestLabelingAppsDeployUnderTheirKeys(t *testing.T) {
	qs := snowWorkload(t)
	var sqls, clusters, users, codes []string
	var runtimes, mems []float64
	for _, q := range qs {
		sqls = append(sqls, q.SQL)
		clusters = append(clusters, q.Cluster)
		users = append(users, q.User)
		codes = append(codes, q.ErrorCode)
		runtimes = append(runtimes, q.RuntimeMS)
		mems = append(mems, q.MemoryMB)
	}
	e, cfg := hashEmbedder{64}, forest.Config{NumTrees: 10, Seed: 7}
	router := NewRoutingChecker(e, cfg)
	auditor := NewSecurityAuditor(e, cfg)
	auditor.MinConfidence = 2 // every query becomes a finding carrying its prediction
	predictor := NewErrorPredictor(e, cfg)
	alloc := NewResourceAllocator(e, cfg)
	est := NewMemoryEstimator(e, cfg)
	for _, err := range []error{
		router.Train(sqls, clusters), auditor.Train(sqls, users), predictor.Train(sqls, codes),
		alloc.Train(sqls, runtimes), est.Train(sqls, mems),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	probe := []string{sqls[0], sqls[len(sqls)/2], sqls[len(sqls)-1]}
	for _, tc := range []struct {
		key     string
		clf     *core.Classifier
		predict func(sql string) string
	}{
		{"cluster", router.Classifier(), func(sql string) string { p, _ := router.Route(sql); return p }},
		{"user", auditor.Classifier(), func(sql string) string {
			f, err := auditor.Audit([]string{sql}, []string{""})
			if err != nil || len(f) != 1 {
				t.Fatalf("audit of one query: %v, %d findings", err, len(f))
			}
			return f[0].Predicted
		}},
		{"error", predictor.Classifier(), func(sql string) string { p, _ := predictor.Predict(sql); return p }},
		{"resource", alloc.Classifier(), func(sql string) string { c, _ := alloc.Predict(sql); return string(c) }},
		{"memMB", est.Classifier(), func(sql string) string { mb, _ := est.Predict(sql); return formatMB(mb) }},
	} {
		if tc.clf.LabelKey != tc.key {
			t.Fatalf("label key %q, want %q", tc.clf.LabelKey, tc.key)
		}
		for _, sql := range probe {
			q := &core.LabeledQuery{SQL: sql}
			if got, want := tc.clf.Process(q), tc.predict(sql); got != want || q.Label(tc.key) != want {
				t.Fatalf("%s: deployed classifier labels %q (%q), app predicts %q", tc.key, got, q.Label(tc.key), want)
			}
		}
	}
}

func TestQueryRecommenderSuggestsNext(t *testing.T) {
	// Session pattern: users alternate A → B strictly.
	var log []string
	for i := 0; i < 100; i++ {
		log = append(log, fmt.Sprintf("select a from orders where day = %d", i))
		log = append(log, fmt.Sprintf("select b from shipments where day = %d", i))
	}
	r := &QueryRecommender{Embedder: hashEmbedder{64}, K: 2, Seed: 5}
	if err := r.Train(log); err != nil {
		t.Fatal(err)
	}
	recs := r.Recommend("select a from orders where day = 5", 3)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	if !strings.Contains(recs[0], "shipments") {
		t.Fatalf("expected shipments follow-up, got %q", recs[0])
	}
	dist := r.NextClusterDistribution("select a from orders where day = 7")
	var sum float64
	for _, p := range dist {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("transition row not a distribution: %v", dist)
	}
}

func TestQueryRecommenderErrors(t *testing.T) {
	r := &QueryRecommender{Embedder: hashEmbedder{16}}
	if err := r.Train([]string{"only one"}); err == nil {
		t.Fatal("needs at least two queries")
	}
	if recs := r.Recommend("x", 3); recs != nil {
		t.Fatal("untrained recommender must return nil")
	}
}

// TestMemoryEstimatorBucketedRegression pins the memory label task: quantile
// buckets over the training distribution, labels that round-trip through
// the string wire format, and predictions that separate light from heavy
// shapes.
func TestMemoryEstimatorBucketedRegression(t *testing.T) {
	var sqls []string
	var mems []float64
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			sqls = append(sqls, fmt.Sprintf("select a from t where id = %d", i))
			mems = append(mems, 32)
		case 1:
			sqls = append(sqls, fmt.Sprintf("select a, sum(b) from t join u group by a -- %d", i))
			mems = append(mems, 128)
		default:
			sqls = append(sqls, fmt.Sprintf("select * from t join u join v join w order by 1 -- %d", i))
			mems = append(mems, 512)
		}
	}
	m := NewMemoryEstimator(hashEmbedder{64}, forest.Config{NumTrees: 20, Seed: 4})
	if err := m.Train(sqls, mems); err != nil {
		t.Fatal(err)
	}
	// Three distinct values: tied quantile buckets must merge down to three.
	if m.TrueMB(32) != 32 || m.TrueMB(128) != 128 || m.TrueMB(512) != 512 {
		t.Fatalf("representatives wrong: %v %v %v", m.TrueMB(32), m.TrueMB(128), m.TrueMB(512))
	}
	// In-between and out-of-range values bucket to a trained representative.
	if m.TrueMB(64) != 128 || m.TrueMB(1e9) != 512 {
		t.Fatalf("bucketing wrong: TrueMB(64)=%v TrueMB(1e9)=%v", m.TrueMB(64), m.TrueMB(1e9))
	}
	mb, conf := m.Predict("select * from t join u join v join w order by 1 -- 999")
	if mb != 512 || conf < 0.4 {
		t.Fatalf("heavy query predicted %vMB (%.2f), want 512", mb, conf)
	}
	mb, _ = m.Predict("select a from t where id = 12345")
	if mb != 32 {
		t.Fatalf("light query predicted %vMB, want 32", mb)
	}
	if key := m.Classifier().LabelKey; key != "memMB" {
		t.Fatalf("label key %q, want memMB", key)
	}
}

// TestMemoryEstimatorDegenerate pins the edge cases: tiny training sets
// and a constant distribution still train (one merged bucket), and label
// parsing rejects junk.
func TestMemoryEstimatorDegenerate(t *testing.T) {
	m := NewMemoryEstimator(hashEmbedder{32}, forest.Config{NumTrees: 5, Seed: 2})
	if err := m.Train([]string{"select a from t"}, []float64{96}); err != nil {
		t.Fatalf("n=1: %v", err)
	}
	if m.TrueMB(5) != 96 || m.TrueMB(5000) != 96 {
		t.Fatalf("single bucket should absorb everything: %v %v", m.TrueMB(5), m.TrueMB(5000))
	}
	if err := m.Train(nil, nil); err == nil {
		t.Fatal("empty training set must error")
	}
	if got := parseMB("not-a-number"); got != 0 {
		t.Fatalf("parseMB junk = %v, want 0", got)
	}
	if got := parseMB("-4"); got != 0 {
		t.Fatalf("parseMB negative = %v, want 0", got)
	}
}
