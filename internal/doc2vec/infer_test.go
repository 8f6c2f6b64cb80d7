package doc2vec

import (
	"sync"
	"testing"

	"querc/internal/snowgen"
	"querc/internal/sqllex"
	"querc/internal/vec"
)

// snowDocs tokenizes a PaperProfile(scale) snowgen log the way the runtime
// tokenizes query text for embedding.
func snowDocs(scale float64, seed int64) [][]string {
	qs := snowgen.Generate(snowgen.Options{Accounts: snowgen.PaperProfile(scale), Seed: seed})
	docs := make([][]string, len(qs))
	for i, q := range qs {
		docs[i] = sqllex.Strings(q.SQL, sqllex.EmbeddingOptions())
	}
	return docs
}

// snowConfig is the shape of the benchmark fixture's model: dim 32, 3
// epochs, the serial schedule.
func snowConfig(mode Mode) Config {
	c := DefaultConfig()
	c.Dim = 32
	c.Epochs = 3
	c.Workers = 1
	c.Mode = mode
	return c
}

var snowFixture struct {
	once  sync.Once
	model *Model
	texts [][]string
	err   error
}

// snowModel trains the fixture-shaped PV-DM model once per test binary on
// the benchmark's corpus (PaperProfile(0.0227), seed 1) and returns it with
// 600 texts to infer: 500 from that corpus and 100 from a seed-2 log, whose
// unseen table names and literals exercise the out-of-vocabulary skips.
func snowModel(tb testing.TB) (*Model, [][]string) {
	tb.Helper()
	f := &snowFixture
	f.once.Do(func() {
		docs := snowDocs(0.0227, 1)
		f.model, f.err = Train(docs, snowConfig(PVDM))
		heldOut := snowDocs(0.001, 2)
		for i := 0; i < 500; i++ {
			f.texts = append(f.texts, docs[i*len(docs)/500])
		}
		f.texts = append(f.texts, heldOut[:100]...)
	})
	if f.err != nil {
		tb.Fatal(f.err)
	}
	return f.model, f.texts
}

// inferPerEpoch is Infer as it was before the window sums were hoisted: every
// epoch calls trainDoc, which rebuilds each position's context from the
// document vector and the window's word vectors.
func inferPerEpoch(m *Model, tokens []string) vec.Vector {
	ids := m.Vocab.Encode(tokens)
	var h int64 = 1469598103934665603
	for _, id := range ids {
		h = (h ^ int64(id)) * 1099511628211
	}
	rng := newXorshift(m.Cfg.Seed ^ h)
	scale := 0.5 / float64(m.Cfg.Dim)
	docVec := make(vec.Vector, m.Cfg.Dim)
	for i := range docVec {
		docVec[i] = (rng.Float64()*2 - 1) * scale
	}
	ctx, grad := vec.New(m.Cfg.Dim), vec.New(m.Cfg.Dim)
	alpha0 := m.Cfg.Alpha
	for e := 0; e < m.Cfg.InferEpochs; e++ {
		alpha := alpha0 - (alpha0-m.Cfg.MinAlpha)*float64(e)/float64(m.Cfg.InferEpochs)
		m.trainDoc(&rng, docVec, ids, alpha, false, ctx, grad)
	}
	return docVec
}

// assertSameVectors fails with the index of the first text whose hoisted and
// per-epoch vectors differ in any element.
func assertSameVectors(t *testing.T, m *Model, texts [][]string) {
	t.Helper()
	for i, toks := range texts {
		got, want := m.Infer(toks), inferPerEpoch(m, toks)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("text %d (%d tokens), dim %d: hoisted Infer %v, per-epoch loop %v", i, len(toks), j, got[j], want[j])
			}
		}
	}
}

// TestInferHoistedMatchesPerEpoch pins Infer's PV-DM path, which sums each
// window's frozen word vectors once per call, to the per-epoch trainDoc loop
// it replaced, element for element with ==. The two compute the context in
// different orders — (docVec + Σwindow)·(1/n) against ((docVec + w₁) + w₂ …)·
// (1/n) — so a context can differ in its last ulp. With the word matrices
// frozen, the context reaches the output only through
// g = alpha·(label − FastSigmoid(Dot(ctx, out))), and FastSigmoid is a
// 4,096-bucket table whose steps are about 0.003 wide: an ulp moves the dot
// product by ~1e-17, which almost never crosses a bucket edge, so g, the
// gradient and the document vector come out bit-identical. The negative
// samples are drawn in the same order on both paths, so the RNG streams
// agree too. A text that ever differs is a real divergence, not noise: do
// not relax this to a tolerance.
func TestInferHoistedMatchesPerEpoch(t *testing.T) {
	m, texts := snowModel(t)
	assertSameVectors(t, m, texts)

	// PV-DBOW has no window and keeps calling trainDoc; run it through both
	// paths once.
	dbow, err := Train(snowDocs(0.001, 1), snowConfig(PVDBOW))
	if err != nil {
		t.Fatal(err)
	}
	assertSameVectors(t, dbow, texts[:50])
}

// BenchmarkInfer times one PV-DM inference at the benchmark fixture's model
// shape (dim 32, 3 training epochs, serial schedule) on a small snowgen
// corpus, cycling through its texts.
func BenchmarkInfer(b *testing.B) {
	docs := snowDocs(0.001, 1)
	m, err := Train(docs, snowConfig(PVDM))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		m.Infer(docs[i%len(docs)])
		i++
	}
}
