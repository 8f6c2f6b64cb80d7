package querc_test

import (
	"strings"
	"testing"

	"querc"
	"querc/internal/snowgen"
	"querc/internal/tpch"
)

// TestEndToEndUserLabeling drives the full public-API pipeline: generate a
// multi-tenant workload, train a Doc2Vec embedder, fit a user labeler,
// deploy it in a Service, and verify predictions on held-out queries from
// the same users.
func TestEndToEndUserLabeling(t *testing.T) {
	qs := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "t1", Users: 3, Queries: 500, Dialect: snowgen.DialectSnow},
		},
		Seed: 21,
	})
	split := len(qs) * 4 / 5
	train, test := qs[:split], qs[split:]

	sqls := make([]string, len(train))
	users := make([]string, len(train))
	for i, q := range train {
		sqls[i] = q.SQL
		users[i] = q.User
	}
	cfg := querc.DefaultDoc2VecConfig()
	cfg.Dim = 32
	cfg.Epochs = 6
	emb, err := querc.TrainDoc2Vec("e2e", sqls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := querc.Fit("user", emb, querc.NewForestLabeler(querc.DefaultForestConfig()), sqls, users, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	svc := querc.NewService()
	svc.AddApplication("t1", 32, nil)
	if err := svc.Deploy("t1", clf); err != nil {
		t.Fatal(err)
	}

	correct := 0
	for _, q := range test {
		labeled, err := svc.Submit("t1", q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if labeled.Label("user") == q.User {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.6 {
		t.Fatalf("end-to-end user accuracy %.2f < 0.6 (%d/%d)", acc, correct, len(test))
	}
	// Served queries carry predictions, not ground truth: none are retained.
	if got := svc.Training().Size("t1"); got != 0 {
		t.Fatalf("training module retained %d served queries, want 0", got)
	}
}

// TestEndToEndSummarizationPipeline drives the §5.1 pipeline through the
// public API with an LSTM embedder at tiny scale.
func TestEndToEndSummarizationPipeline(t *testing.T) {
	insts := tpch.GenerateWorkload(tpch.WorkloadOptions{PerTemplate: 4, Seed: 7})
	sqls := tpch.SQLTexts(insts)
	cfg := querc.DefaultLSTMConfig()
	cfg.EmbedDim = 12
	cfg.HiddenDim = 16
	cfg.Epochs = 1
	cfg.SampledSoftmax = 8
	cfg.MaxSeqLen = 24
	emb, err := querc.TrainLSTM("tpch-tiny", sqls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := (&querc.Summarizer{Embedder: emb, MaxK: 24, Seed: 1, Workers: 4}).Summarize(sqls)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Indices) == 0 || len(sum.Indices) > len(sqls) {
		t.Fatalf("summary size: %d", len(sum.Indices))
	}
	total := 0
	for _, w := range sum.Weights {
		total += w
	}
	if total != len(sqls) {
		t.Fatalf("weights partition: %d vs %d", total, len(sqls))
	}
}

func TestTokenizeFacade(t *testing.T) {
	toks := querc.Tokenize("SELECT A FROM B")
	if strings.Join(toks, " ") != "select a from b" {
		t.Fatalf("tokenize: %v", toks)
	}
}

func TestRegistryFacade(t *testing.T) {
	reg, err := querc.NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if models := reg.Models(); len(models) != 0 {
		t.Fatalf("fresh registry models: %v", models)
	}
}
