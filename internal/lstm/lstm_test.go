package lstm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"querc/internal/vec"
	"querc/internal/vocab"
)

// tinyCorpus: two clearly distinct token patterns.
func tinyCorpus() [][]string {
	var docs [][]string
	for i := 0; i < 30; i++ {
		docs = append(docs, []string{"select", "a", "from", "t", "where", "x"})
		docs = append(docs, []string{"insert", "into", "u", "values", "y"})
	}
	return docs
}

func tinyConfig() Config {
	return Config{EmbedDim: 8, HiddenDim: 12, Epochs: 4, Alpha: 0.02, GradClip: 5, MaxSeqLen: 16, MinCount: 1, Seed: 3}
}

func TestTrainLossDecreases(t *testing.T) {
	m, err := Train(tinyCorpus(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.LossHistory) < 2 {
		t.Fatalf("loss history too short: %v", m.LossHistory)
	}
	first, last := m.LossHistory[0], m.LossHistory[len(m.LossHistory)-1]
	if !(last < first) {
		t.Fatalf("loss did not decrease: %v", m.LossHistory)
	}
}

func TestEncodeShapeAndDeterminism(t *testing.T) {
	m, err := Train(tinyCorpus(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	v1 := m.Encode([]string{"select", "a", "from", "t"})
	v2 := m.Encode([]string{"select", "a", "from", "t"})
	if len(v1) != m.Dim() {
		t.Fatalf("dim: %d want %d", len(v1), m.Dim())
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("encoding must be deterministic")
		}
	}
}

func TestEncodeSeparatesPatterns(t *testing.T) {
	m, err := Train(tinyCorpus(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel1 := m.Encode([]string{"select", "a", "from", "t", "where", "x"})
	sel2 := m.Encode([]string{"select", "a", "from", "t", "where", "x"})
	ins := m.Encode([]string{"insert", "into", "u", "values", "y"})
	simSame := vec.Cosine(sel1, sel2)
	simDiff := vec.Cosine(sel1, ins)
	if !(simSame > simDiff) {
		t.Fatalf("same-pattern similarity (%.3f) should exceed cross-pattern (%.3f)", simSame, simDiff)
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	if _, err := Train(nil, tinyConfig()); err == nil {
		t.Fatal("expected error on empty corpus")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := Train(tinyCorpus(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []string{"select", "a", "from", "t"}
	v1, v2 := m.Encode(in), m2.Encode(in)
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 1e-12 {
			t.Fatal("loaded model encodes differently")
		}
	}
}

func TestSampledSoftmaxTrains(t *testing.T) {
	cfg := tinyConfig()
	cfg.SampledSoftmax = 4
	m, err := Train(tinyCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := m.LossHistory[0], m.LossHistory[len(m.LossHistory)-1]
	if !(last < first) {
		t.Fatalf("NCE loss did not decrease: %v", m.LossHistory)
	}
}

// TestGradientCheck verifies the full BPTT implementation by comparing the
// analytic gradient of one training example against central finite
// differences, for a sample of parameters in every tensor.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := vocab.NewBuilder()
	b.Add([]string{"a", "b", "c", "d"})
	v := b.Build(1)
	cfg := Config{EmbedDim: 3, HiddenDim: 4, Epochs: 1, Alpha: 0.01, MaxSeqLen: 8, MinCount: 1, Seed: 9}
	m := &Model{
		Cfg:   cfg,
		Vocab: v,
		Embed: vec.NewRandomMatrix(rng, v.Size(), cfg.EmbedDim, 0.5),
		Enc:   newCell(rng, cfg.EmbedDim, cfg.HiddenDim),
		Dec:   newCell(rng, cfg.EmbedDim, cfg.HiddenDim),
		OutW:  vec.NewRandomMatrix(rng, v.Size(), cfg.HiddenDim, 0.5),
		OutB:  vec.New(v.Size()),
	}
	ids := []int{v.ID("a"), v.ID("b"), v.ID("c"), v.ID("d")}

	// Analytic gradients: run forward+backward once without the optimizer
	// step by reading the trainer's gradient buffers before they are
	// consumed. We emulate that by configuring a zero learning rate: Adam
	// with lr=0 leaves parameters unchanged but still zeroes gradients, so
	// instead we compute loss twice with perturbed weights and compare the
	// finite difference against the analytic directional derivative.
	lossOf := func() float64 {
		tr := newTrainer(m)
		tr.opt.lr = 0 // keep parameters frozen
		loss, n := tr.trainOne(ids)
		_ = n
		return loss
	}

	// Capture analytic gradients via a trainer that does not apply updates.
	tr := newTrainer(m)
	tr.opt.lr = 0
	// Temporarily prevent gradient zeroing by stepping with lr 0 — step()
	// zeroes grads, so instead replicate trainOne's core but keep grads: we
	// simply recompute them below through finite differences on the tensors.
	base, _ := tr.trainOne(ids)
	_ = base

	tensors := map[string][]float64{
		"embed": m.Embed.Data,
		"encWx": m.Enc.Wx.Data, "encWh": m.Enc.Wh.Data, "encB": m.Enc.B,
		"decWx": m.Dec.Wx.Data, "decWh": m.Dec.Wh.Data, "decB": m.Dec.B,
		"outW": m.OutW.Data, "outB": m.OutB,
	}
	const eps = 1e-5
	for name, tensor := range tensors {
		// Check a few random coordinates per tensor.
		for k := 0; k < 3; k++ {
			i := rng.Intn(len(tensor))
			orig := tensor[i]
			tensor[i] = orig + eps
			lp := lossOf()
			tensor[i] = orig - eps
			lm := lossOf()
			tensor[i] = orig
			numGrad := (lp - lm) / (2 * eps)

			// Analytic gradient for the same coordinate.
			tr2 := newTrainer(m)
			tr2.opt.lr = 0
			grads := map[string][]float64{
				"embed": tr2.dEmbed.Data,
				"encWx": tr2.encG.dWx.Data, "encWh": tr2.encG.dWh.Data, "encB": tr2.encG.dB,
				"decWx": tr2.decG.dWx.Data, "decWh": tr2.decG.dWh.Data, "decB": tr2.decG.dB,
				"outW": tr2.dOutW.Data, "outB": tr2.dOutB,
			}
			// trainOne applies opt.step which zeroes grads; snapshot first by
			// running the pieces manually is intrusive, so instead use lr=0
			// Adam and read moments: m1 = (1-beta1)*grad after one step.
			tr2.trainOne(ids)
			m1 := tr2.opt.m[tensorIndex(name)]
			analytic := m1[i] / (1 - 0.9) // invert the first-moment update
			_ = grads

			if math.Abs(numGrad-analytic) > 1e-4*(1+math.Abs(numGrad)+math.Abs(analytic)) {
				t.Fatalf("%s[%d]: numeric %.8f vs analytic %.8f", name, i, numGrad, analytic)
			}
		}
	}
}

// tensorIndex mirrors the parameter ordering in newTrainer.
func tensorIndex(name string) int {
	order := []string{"embed", "encWx", "encWh", "encB", "decWx", "decWh", "decB", "outW", "outB"}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return -1
}

func TestAdamStepUpdatesAndZeroesGrads(t *testing.T) {
	p := []float64{1, 2}
	g := []float64{0.5, -0.5}
	a := newAdam(0.1, [][]float64{p}, [][]float64{g})
	a.step(0)
	if p[0] >= 1 || p[1] <= 2 {
		t.Fatalf("Adam step direction wrong: %v", p)
	}
	if g[0] != 0 || g[1] != 0 {
		t.Fatalf("grads not zeroed: %v", g)
	}
}

func TestGradClipBoundsNorm(t *testing.T) {
	g := []float64{30, 40} // norm 50
	a := newAdam(0.1, [][]float64{{0, 0}}, [][]float64{g})
	// Clip to norm 5 before the step consumes the gradient.
	a.step(5)
	// After step, grads are zeroed; verify the moments reflect clipping:
	// m = 0.1 * clipped grad = 0.1 * (3, 4).
	if math.Abs(a.m[0][0]-0.3) > 1e-12 || math.Abs(a.m[0][1]-0.4) > 1e-12 {
		t.Fatalf("clipping wrong: %v", a.m[0])
	}
}

// TestTrainMinibatchParallel exercises the data-parallel plane: gradients
// from a batch of sequences are accumulated across workers and applied in a
// single Adam step. The trajectory differs from per-sequence stepping, but
// the loss must still fall and the encoder must still separate the two
// templates. Run with -race this covers the concurrent accumulate path.
func TestTrainMinibatchParallel(t *testing.T) {
	cfg := tinyConfig()
	cfg.BatchSize = 8
	cfg.Workers = 4
	cfg.Epochs = 6
	m, err := Train(tinyCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := m.LossHistory[0], m.LossHistory[len(m.LossHistory)-1]
	if !(last < first) {
		t.Fatalf("minibatch loss did not decrease: %v", m.LossHistory)
	}
	sel := m.Encode([]string{"select", "a", "from", "t", "where", "x"})
	sel2 := m.Encode([]string{"select", "a", "from", "t", "where", "x"})
	ins := m.Encode([]string{"insert", "into", "u", "values", "y"})
	if !(vec.Cosine(sel, sel2) > vec.Cosine(sel, ins)) {
		t.Fatal("minibatch-trained encoder lost template separation")
	}
}

// TestTrainBatchSize1MatchesSerial: BatchSize<=1 must preserve the exact
// per-sequence Adam stepping — same seed, same corpus, same weights.
func TestTrainBatchSize1MatchesSerial(t *testing.T) {
	a, err := Train(tinyCorpus(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.BatchSize = 1
	cfg.Workers = 8 // workers are clamped to the batch size
	b, err := Train(tinyCorpus(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Embed.Data {
		if a.Embed.Data[i] != b.Embed.Data[i] {
			t.Fatal("BatchSize=1 must reproduce the serial trajectory exactly")
		}
	}
}

// TestEmptySequencesDoNotStepAdam: empty token sequences accumulate nothing,
// and Train must not apply an Adam step for an all-empty batch — a zero-grad
// step would still advance the bias-correction clock and decay the moments,
// silently diverging from the per-sequence trajectory.
func TestEmptySequencesDoNotStepAdam(t *testing.T) {
	corpus := tinyCorpus()
	corpus = append(corpus, nil, []string{}, nil) // empty docs mixed in
	m, err := Train(corpus, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range m.LossHistory {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("loss went non-finite: %v", m.LossHistory)
		}
	}
	// Trainer-level invariant behind the skip: an empty sequence reports
	// zero predicted tokens and leaves every gradient buffer untouched.
	tr := newTrainer(m)
	loss, n := tr.accumulate(nil)
	if loss != 0 || n != 0 {
		t.Fatalf("empty accumulate: loss=%v n=%d", loss, n)
	}
	for _, g := range tr.gradTensors() {
		for _, x := range g {
			if x != 0 {
				t.Fatal("empty accumulate must not touch gradients")
			}
		}
	}
}

// TestEncodeAllocs pins the steady-state allocation profile of Encode: the
// returned hidden-state vector plus pool jitter, nothing per-token.
func TestEncodeAllocs(t *testing.T) {
	if vec.RaceEnabled {
		t.Skip("allocation profile differs under the race detector")
	}
	m, err := Train(tinyCorpus(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tokens := []string{"select", "a", "from", "t", "where", "x"}
	for i := 0; i < 4; i++ {
		m.Encode(tokens) // warm the scratch pool
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Encode(tokens) }); allocs > 2 {
		t.Fatalf("Encode allocates %.1f per op, want <= 2 (result vector + pool jitter)", allocs)
	}
}
