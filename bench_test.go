// Package-level benchmarks: one per table/figure of the paper's evaluation
// (§5), plus ablations over the design choices called out in DESIGN.md.
//
// Each benchmark drives the same code path as cmd/quercbench but at reduced
// scale so `go test -bench=.` completes in minutes; the reported custom
// metrics mirror the numbers in the paper's artifacts (workload seconds,
// accuracies). Full-scale regeneration: `go run ./cmd/quercbench -experiment
// all` (see EXPERIMENTS.md for recorded outputs).
package querc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"querc"
	"querc/internal/advisor"
	"querc/internal/apps"
	"querc/internal/doc2vec"
	"querc/internal/engine"
	"querc/internal/experiments"
	"querc/internal/ml/cluster"
	"querc/internal/ml/eval"
	"querc/internal/ml/forest"
	"querc/internal/snowgen"
	"querc/internal/tpch"
	"querc/internal/vec"
)

// ---------- Figure 3: workload summarization for index selection ----------

// BenchmarkFig3FullWorkload measures the native-tool path: advisor on the
// full TPC-H workload at the 3-minute budget (the regression point of the
// blue line in Fig. 3).
func BenchmarkFig3FullWorkload(b *testing.B) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 40, Seed: 7})
	queries := tpch.Queries(insts)
	eng := engine.New(tpch.Catalog())
	tpch.CalibrateEngine(eng, queries, 1200)
	b.ResetTimer()
	var runtime float64
	for i := 0; i < b.N; i++ {
		rec := advisor.Recommend(eng, queries, 180, advisor.DefaultParams())
		runtime = eng.ExecuteWorkload(queries, rec.Design).TotalSeconds
	}
	b.ReportMetric(runtime, "workload-s")
}

// BenchmarkFig3SummarizedWorkload measures the Querc path at the same
// budget: embed → k-means summary → advisor → execute. A deterministic
// hash embedder keeps the benchmark's per-iteration cost about the
// clustering and advisor (the learned-embedder path is exercised in
// BenchmarkEmbedders and cmd/quercbench).
func BenchmarkFig3SummarizedWorkload(b *testing.B) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 40, Seed: 7})
	queries := tpch.Queries(insts)
	sqls := tpch.SQLTexts(insts)
	eng := engine.New(tpch.Catalog())
	tpch.CalibrateEngine(eng, queries, 1200)
	emb := hashEmbedder{dim: 64}
	b.ResetTimer()
	var runtime float64
	for i := 0; i < b.N; i++ {
		sum, err := (&apps.Summarizer{Embedder: emb, MaxK: 32, Frac: 0.05, Seed: 7, Workers: 4}).Summarize(sqls)
		if err != nil {
			b.Fatal(err)
		}
		sub := make([]*engine.Query, 0, len(sum.Indices))
		for k, idx := range sum.Indices {
			q := *queries[idx]
			q.Weight = float64(sum.Weights[k])
			sub = append(sub, &q)
		}
		rec := advisor.Recommend(eng, sub, 180, advisor.DefaultParams())
		runtime = eng.ExecuteWorkload(queries, rec.Design).TotalSeconds
	}
	b.ReportMetric(runtime, "workload-s")
}

// ---------- Figure 4: per-query regression under the 3-minute design ----------

// BenchmarkFig4PerQueryRegression reproduces the per-query series and
// reports the Q18 block's regression factor.
func BenchmarkFig4PerQueryRegression(b *testing.B) {
	var reg float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(experiments.DefaultFig4Config(experiments.ScaleSmall))
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := res.RegressedBlock[0], res.RegressedBlock[1]
		var no, with float64
		for q := lo; q <= hi; q++ {
			no += res.NoIndex[q]
			with += res.WithIndexes[q]
		}
		reg = with / no
	}
	b.ReportMetric(reg, "q18-slowdown-x")
}

// ---------- Table 1: account/user labeling accuracy ----------

// BenchmarkTable1Labeling runs a reduced version of the §5.2 pipeline: a
// multi-tenant corpus, Doc2Vec embeddings, forest labelers, k-fold CV for
// account and user labels. Accuracies are reported as custom metrics.
func BenchmarkTable1Labeling(b *testing.B) {
	qs := snowgen.Generate(snowgen.Options{
		Accounts: snowgen.PaperProfile(0.01),
		Seed:     11,
	})
	sqls := make([]string, len(qs))
	accounts := make([]string, len(qs))
	users := make([]string, len(qs))
	for i, q := range qs {
		sqls[i] = q.SQL
		accounts[i] = q.Account
		users[i] = q.User
	}
	cfg := doc2vec.DefaultConfig()
	cfg.Dim = 32
	cfg.Epochs = 5
	emb, err := querc.TrainDoc2Vec("bench", sqls, cfg)
	if err != nil {
		b.Fatal(err)
	}
	X := querc.EmbedAll(emb, sqls, 8)
	b.ResetTimer()
	var accAcc, usrAcc float64
	for i := 0; i < b.N; i++ {
		accAcc = cvAccuracy(b, X, accounts)
		usrAcc = cvAccuracy(b, X, users)
	}
	b.ReportMetric(accAcc*100, "account-%")
	b.ReportMetric(usrAcc*100, "user-%")
}

// ---------- Table 2: per-account user accuracy ----------

// BenchmarkTable2PerAccount reports the accuracy gap between a
// repetition-heavy account and a well-separated one — the Table 2 contrast.
func BenchmarkTable2PerAccount(b *testing.B) {
	qs := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "dup", Users: 10, Queries: 800, SharedFraction: 0.72, Dialect: snowgen.DialectSnow},
			{Name: "sep", Users: 10, Queries: 800, SharedFraction: 0.0, Dialect: snowgen.DialectAnsi},
		},
		Seed: 13,
	})
	sqls := make([]string, len(qs))
	users := make([]string, len(qs))
	accounts := make([]string, len(qs))
	for i, q := range qs {
		sqls[i] = q.SQL
		users[i] = q.User
		accounts[i] = q.Account
	}
	emb := hashEmbedder{dim: 96}
	X := querc.EmbedAll(emb, sqls, 8)
	b.ResetTimer()
	var dupAcc, sepAcc float64
	for i := 0; i < b.N; i++ {
		preds := cvPredictions(b, X, users)
		truth, _ := encode(users)
		accuracy, _ := eval.GroupedAccuracy(preds, truth, accounts)
		dupAcc, sepAcc = accuracy["dup"], accuracy["sep"]
	}
	b.ReportMetric(dupAcc*100, "dup-account-%")
	b.ReportMetric(sepAcc*100, "sep-account-%")
}

// ---------- Ablations ----------

// BenchmarkAblationSummaryBaseline compares the learned-embedding summarizer
// against the Chaudhuri-style K-medoids baseline on downstream workload
// runtime at the 3-minute budget.
func BenchmarkAblationSummaryBaseline(b *testing.B) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 20, Seed: 7})
	queries := tpch.Queries(insts)
	sqls := tpch.SQLTexts(insts)
	eng := engine.New(tpch.Catalog())
	tpch.CalibrateEngine(eng, queries, 1200)
	run := func(sum *apps.SummaryResult) float64 {
		sub := make([]*engine.Query, 0, len(sum.Indices))
		for k, idx := range sum.Indices {
			q := *queries[idx]
			q.Weight = float64(sum.Weights[k])
			sub = append(sub, &q)
		}
		rec := advisor.Recommend(eng, sub, 180, advisor.DefaultParams())
		return eng.ExecuteWorkload(queries, rec.Design).TotalSeconds
	}
	b.ResetTimer()
	var learned, baseline float64
	for i := 0; i < b.N; i++ {
		ls, err := (&apps.Summarizer{Embedder: hashEmbedder{dim: 64}, MaxK: 32, Frac: 0.05, Seed: 7}).Summarize(sqls)
		if err != nil {
			b.Fatal(err)
		}
		learned = run(ls)
		bs, err := (&apps.BaselineSummarizer{K: len(ls.Indices), Seed: 7}).Summarize(sqls)
		if err != nil {
			b.Fatal(err)
		}
		baseline = run(bs)
	}
	b.ReportMetric(learned, "learned-s")
	b.ReportMetric(baseline, "kmedoids-s")
}

// BenchmarkAblationDoc2VecModes compares PV-DM vs PV-DBOW training cost on
// the same corpus (the paper uses context-prediction models generically;
// this pins the tradeoff).
func BenchmarkAblationDoc2VecModes(b *testing.B) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 10, Seed: 7})
	docs := make([][]string, len(insts))
	for i, inst := range insts {
		docs[i] = querc.Tokenize(inst.SQL)
	}
	for _, mode := range []doc2vec.Mode{doc2vec.PVDM, doc2vec.PVDBOW} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := doc2vec.DefaultConfig()
			cfg.Dim = 32
			cfg.Epochs = 3
			cfg.Mode = mode
			for i := 0; i < b.N; i++ {
				if _, err := doc2vec.Train(docs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainParallel sweeps the Hogwild training plane over
// Workers=1/2/4/8 on a multi-user corpus: ns/op is the wall-clock of one
// full doc2vec.Train, and cv-% reports the downstream user-labeling
// cross-validation accuracy of the trained model's embeddings (computed once
// per worker setting, outside the timed region). The acceptance bar for the
// parallel plane is workers=8 at >= 3x the workers=1 wall-clock on an 8-core
// box with cv-% within 1 point of serial.
func BenchmarkTrainParallel(b *testing.B) {
	gen := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "a", Users: 4, Queries: 1300, SharedFraction: 0, Dialect: snowgen.DialectSnow},
			{Name: "b", Users: 4, Queries: 1200, SharedFraction: 0, Dialect: snowgen.DialectAnsi},
		},
		Seed: 21,
	})
	docs := make([][]string, len(gen))
	users := make([]string, len(gen))
	for i, q := range gen {
		docs[i] = querc.Tokenize(q.SQL)
		users[i] = q.Account + "/" + q.User
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := doc2vec.DefaultConfig()
			cfg.Dim = 32
			cfg.Epochs = 12
			cfg.Workers = workers
			var m *doc2vec.Model
			var err error
			for i := 0; i < b.N; i++ {
				if m, err = doc2vec.Train(docs, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			X := make([]vec.Vector, len(docs))
			for i := range docs {
				X[i] = m.DocVector(i)
			}
			b.ReportMetric(cvAccuracy(b, X, users)*100, "cv-%")
		})
	}
}

// BenchmarkEmbedders measures single-query embedding latency for both
// learned models — the per-query overhead a Qworker adds in the critical
// path. It measures the embedding plane's hot path (EmbedTokens on
// pre-tokenized queries: the runtime lexes each submit once and hands tokens
// to every embedder); BenchmarkTokenize prices the lexer separately.
func BenchmarkEmbedders(b *testing.B) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 10, Seed: 7})
	sqls := tpch.SQLTexts(insts)
	toks := make([][]string, len(sqls))
	for i, sql := range sqls {
		toks[i] = querc.Tokenize(sql)
	}
	d2vCfg := doc2vec.DefaultConfig()
	d2vCfg.Dim = 32
	d2vCfg.Epochs = 3
	d2v, err := querc.TrainDoc2Vec("bench", sqls, d2vCfg)
	if err != nil {
		b.Fatal(err)
	}
	lstmCfg := querc.DefaultLSTMConfig()
	lstmCfg.EmbedDim = 16
	lstmCfg.HiddenDim = 32
	lstmCfg.Epochs = 1
	lstmCfg.SampledSoftmax = 8
	lstmE, err := querc.TrainLSTM("bench", sqls, lstmCfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    querc.Embedder
	}{{"doc2vec", d2v}, {"lstm", lstmE}} {
		te, ok := tc.e.(querc.TokenizedEmbedder)
		if !ok {
			b.Fatalf("%s: learned embedders must implement TokenizedEmbedder", tc.name)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				te.EmbedTokens(toks[i%len(toks)])
			}
		})
	}
}

// BenchmarkTokenize prices the canonical SQL lexing step the runtime pays
// once per submitted query (the embedders themselves no longer re-lex).
func BenchmarkTokenize(b *testing.B) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 10, Seed: 7})
	sqls := tpch.SQLTexts(insts)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		querc.Tokenize(sqls[i%len(sqls)])
	}
}

// BenchmarkAdvisorWhatIf measures raw what-if evaluation throughput, the
// advisor's inner loop.
func BenchmarkAdvisorWhatIf(b *testing.B) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 40, Seed: 7})
	queries := tpch.Queries(insts)
	eng := engine.New(tpch.Catalog())
	d := engine.NewDesign(
		engine.NewIndex("lineitem", "l_orderkey"),
		engine.NewIndex("lineitem", "l_shipdate", "l_discount"),
		engine.NewIndex("orders", "o_orderdate"),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.EstimateWorkloadCost(queries, d)
	}
}

// BenchmarkKMeansElbow measures the summary clustering step.
func BenchmarkKMeansElbow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	points := make([]vec.Vector, 880)
	for i := range points {
		points[i] = vec.NewRandom(rng, 48, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.ElbowK(rng, points, 32, 0.05)
	}
}

// ---------- helpers ----------

type hashEmbedder struct{ dim int }

func (h hashEmbedder) Embed(sql string) vec.Vector {
	v := vec.New(h.dim)
	for _, tok := range querc.Tokenize(sql) {
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

func encode(labels []string) ([]int, []string) {
	ids := map[string]int{}
	var classes []string
	out := make([]int, len(labels))
	for i, l := range labels {
		id, ok := ids[l]
		if !ok {
			id = len(classes)
			ids[l] = id
			classes = append(classes, l)
		}
		out[i] = id
	}
	return out, classes
}

func cvAccuracy(b *testing.B, X []vec.Vector, labels []string) float64 {
	b.Helper()
	y, classes := encode(labels)
	rng := rand.New(rand.NewSource(1))
	acc, _, err := eval.CrossValidate(rng, X, y, 5, func(trX []vec.Vector, trY []int) (eval.Classifier, error) {
		return forest.Train(trX, trY, len(classes), forest.Config{NumTrees: 20, Seed: 1})
	})
	if err != nil {
		b.Fatal(err)
	}
	return acc
}

func cvPredictions(b *testing.B, X []vec.Vector, labels []string) []int {
	b.Helper()
	y, classes := encode(labels)
	rng := rand.New(rand.NewSource(1))
	_, preds, err := eval.CrossValidate(rng, X, y, 5, func(trX []vec.Vector, trY []int) (eval.Classifier, error) {
		return forest.Train(trX, trY, len(classes), forest.Config{NumTrees: 20, Seed: 1})
	})
	if err != nil {
		b.Fatal(err)
	}
	return preds
}
