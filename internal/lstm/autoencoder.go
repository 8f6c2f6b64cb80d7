package lstm

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"querc/internal/vec"
	"querc/internal/vocab"
)

// Config holds the autoencoder hyper-parameters.
type Config struct {
	EmbedDim  int     // token embedding dimensionality
	HiddenDim int     // LSTM hidden size = query vector dimensionality
	Epochs    int     // passes over the corpus
	Alpha     float64 // Adam learning rate
	GradClip  float64 // global-norm gradient clipping (0 disables)
	MaxSeqLen int     // sequences are truncated to this many tokens
	MinCount  int64   // vocabulary frequency cutoff
	// SampledSoftmax > 0 replaces the full-softmax reconstruction loss with
	// noise-contrastive estimation over that many negative samples per
	// target token. This is the standard trick for large vocabularies; the
	// encoder (and therefore the learned representation) is unchanged.
	SampledSoftmax int
	Seed           int64
	// BatchSize is the number of sequences whose gradients are accumulated
	// into a single Adam apply. 0/1 keeps today's per-sequence stepping (and
	// its deterministic trajectory); larger batches are what the data-
	// parallel plane fans across Workers.
	BatchSize int
	// Workers bounds the goroutines that split each minibatch. 0 uses
	// GOMAXPROCS. Unlike doc2vec's Hogwild plane this path is race-free by
	// construction: workers only read the parameters and write their own
	// gradient buffers, merged before the single Adam step.
	Workers int
}

// DefaultConfig returns the hyper-parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		EmbedDim:  32,
		HiddenDim: 64,
		Epochs:    5,
		Alpha:     0.01,
		GradClip:  5,
		MaxSeqLen: 48,
		MinCount:  2,
		Seed:      1,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.EmbedDim <= 0 {
		c.EmbedDim = d.EmbedDim
	}
	if c.HiddenDim <= 0 {
		c.HiddenDim = d.HiddenDim
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.Alpha <= 0 {
		c.Alpha = d.Alpha
	}
	if c.MaxSeqLen <= 0 {
		c.MaxSeqLen = d.MaxSeqLen
	}
	if c.MinCount <= 0 {
		c.MinCount = d.MinCount
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Model is a trained LSTM autoencoder. The learned representation of a query
// is the encoder's final hidden state (paper Fig. 2).
type Model struct {
	Cfg   Config
	Vocab *vocab.Vocabulary

	Embed    *vec.Matrix // V x E, tied between encoder and decoder inputs
	Enc, Dec *cell
	OutW     *vec.Matrix // V x H output projection
	OutB     vec.Vector  // V

	// LossHistory records the mean per-token cross-entropy after each epoch.
	LossHistory []float64

	// encPool recycles the per-call scratch of Encode (token IDs, gate
	// pre-activations, double-buffered hidden/cell states), so encoding a
	// query allocates only the returned vector.
	encPool sync.Pool
}

// encodeScratch is the pooled per-call state of Encode.
type encodeScratch struct {
	ids          []int
	z            vec.Vector // 4H gate pre-activations
	h, c, h2, c2 vec.Vector // double-buffered hidden/cell states
}

// Train fits the autoencoder on corpus (token sequences).
func Train(corpus [][]string, cfg Config) (*Model, error) {
	cfg.fillDefaults()
	if len(corpus) == 0 {
		return nil, fmt.Errorf("lstm: empty corpus")
	}
	b := vocab.NewBuilder()
	for _, doc := range corpus {
		b.Add(doc)
	}
	v := b.Build(cfg.MinCount)
	if v.Size() <= vocab.NumReserved {
		return nil, fmt.Errorf("lstm: vocabulary empty after min-count %d", cfg.MinCount)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Cfg:   cfg,
		Vocab: v,
		Embed: vec.NewRandomMatrix(rng, v.Size(), cfg.EmbedDim, 0.1),
		Enc:   newCell(rng, cfg.EmbedDim, cfg.HiddenDim),
		Dec:   newCell(rng, cfg.EmbedDim, cfg.HiddenDim),
		OutW:  vec.NewRandomMatrix(rng, v.Size(), cfg.HiddenDim, 0.1),
		OutB:  vec.New(v.Size()),
	}

	encoded := make([][]int, len(corpus))
	for i, doc := range corpus {
		ids := v.Encode(doc)
		if len(ids) > cfg.MaxSeqLen {
			ids = ids[:cfg.MaxSeqLen]
		}
		encoded[i] = ids
	}

	tr := newTrainer(m)
	workers := cfg.Workers
	if workers > cfg.BatchSize {
		workers = cfg.BatchSize
	}
	var aux []*trainer // extra per-worker gradient accumulators
	for w := 1; w < workers; w++ {
		aux = append(aux, newWorkerTrainer(m, cfg.Seed+int64(w)*0x5DEECE66D+0x2545F491))
	}
	order := rng.Perm(len(encoded))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var totalLoss float64
		var totalTok int
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			batch := order[lo:hi]
			var batchTok int
			if workers <= 1 || len(batch) == 1 {
				for _, idx := range batch {
					loss, n := tr.accumulate(encoded[idx])
					totalLoss += loss
					batchTok += n
				}
			} else {
				// Data-parallel gradient accumulation: every worker reads
				// the (frozen-within-the-batch) parameters and writes only
				// its own buffers, so this is race-free by construction.
				loss, n := tr.accumulateParallel(aux, encoded, batch)
				totalLoss += loss
				batchTok += n
			}
			totalTok += batchTok
			// Single Adam apply per batch — skipped when every sequence in
			// the batch was empty: an all-zero step would still advance
			// Adam's bias-correction clock and decay the moments, diverging
			// from the per-sequence trajectory BatchSize<=1 promises to
			// preserve.
			if batchTok > 0 {
				tr.opt.step(cfg.GradClip)
			}
		}
		if totalTok > 0 {
			m.LossHistory = append(m.LossHistory, totalLoss/float64(totalTok))
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return m, nil
}

// accumulateParallel fans the sequences of one minibatch across the main
// trainer plus the aux worker trainers, then folds every worker's gradient
// buffers into the main trainer's (which the caller's Adam step consumes).
// It returns the batch's summed loss and predicted-token count.
func (tr *trainer) accumulateParallel(aux []*trainer, encoded [][]int, batch []int) (float64, int) {
	trainers := append([]*trainer{tr}, aux...)
	losses := make([]float64, len(trainers))
	tokens := make([]int, len(trainers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range trainers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(batch) {
					return
				}
				loss, n := trainers[w].accumulate(encoded[batch[k]])
				losses[w] += loss
				tokens[w] += n
			}
		}(w)
	}
	wg.Wait()
	var loss float64
	var tok int
	for w, t := range trainers {
		loss += losses[w]
		tok += tokens[w]
		if w > 0 {
			tr.absorb(t)
		}
	}
	return loss, tok
}

// Dim returns the dimensionality of the learned query vectors.
func (m *Model) Dim() int { return m.Cfg.HiddenDim }

// Encode runs the encoder over tokens and returns the final hidden state —
// the learned query representation. The inference step uses the fused
// stepInto kernel (table sigmoid, double-buffered states, pooled scratch),
// so the only allocation per call is the returned vector. Encode is
// deterministic and safe for concurrent use (the parameters are read-only
// here).
//
//querc:hotpath
func (m *Model) Encode(tokens []string) vec.Vector {
	sc, _ := m.encPool.Get().(*encodeScratch)
	if sc == nil {
		H := m.Cfg.HiddenDim
		sc = &encodeScratch{
			z: vec.New(4 * H),
			h: vec.New(H), c: vec.New(H), h2: vec.New(H), c2: vec.New(H),
		}
	}
	sc.ids = m.Vocab.EncodeInto(sc.ids[:0], tokens)
	ids := sc.ids
	if len(ids) > m.Cfg.MaxSeqLen {
		ids = ids[:m.Cfg.MaxSeqLen]
	}
	h, c, h2, c2 := sc.h, sc.c, sc.h2, sc.c2
	h.Zero()
	c.Zero()
	for _, id := range ids {
		m.Enc.stepInto(m.Embed.Row(id), h, c, h2, c2, sc.z)
		h, h2 = h2, h
		c, c2 = c2, c
	}
	out := h.Clone()
	m.encPool.Put(sc)
	return out
}

// trainer bundles gradient buffers (and, for the main trainer, the
// optimizer) for one Train call. Worker trainers created by newWorkerTrainer
// share the model but own their gradient buffers and RNG; their opt is nil
// and their buffers are folded into the main trainer by absorb.
type trainer struct {
	m      *Model
	encG   *cellGrads
	decG   *cellGrads
	dEmbed *vec.Matrix
	dOutW  *vec.Matrix
	dOutB  vec.Vector
	opt    *adam
	probs  vec.Vector
	logits vec.Vector
	rng    *rand.Rand
}

func newWorkerTrainer(m *Model, seed int64) *trainer {
	return &trainer{
		m:      m,
		encG:   newCellGrads(m.Enc),
		decG:   newCellGrads(m.Dec),
		dEmbed: vec.NewMatrix(m.Embed.Rows, m.Embed.Cols),
		dOutW:  vec.NewMatrix(m.OutW.Rows, m.OutW.Cols),
		dOutB:  vec.New(len(m.OutB)),
		probs:  vec.New(m.Vocab.Size()),
		logits: vec.New(m.Vocab.Size()),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func newTrainer(m *Model) *trainer {
	tr := newWorkerTrainer(m, m.Cfg.Seed+0x5f3759df)
	params := [][]float64{
		m.Embed.Data,
		m.Enc.Wx.Data, m.Enc.Wh.Data, m.Enc.B,
		m.Dec.Wx.Data, m.Dec.Wh.Data, m.Dec.B,
		m.OutW.Data, m.OutB,
	}
	tr.opt = newAdam(m.Cfg.Alpha, params, tr.gradTensors())
	return tr
}

// gradTensors lists the gradient buffers in the canonical parameter order
// shared by the optimizer wiring and absorb.
func (tr *trainer) gradTensors() [][]float64 {
	return [][]float64{
		tr.dEmbed.Data,
		tr.encG.dWx.Data, tr.encG.dWh.Data, tr.encG.dB,
		tr.decG.dWx.Data, tr.decG.dWh.Data, tr.decG.dB,
		tr.dOutW.Data, tr.dOutB,
	}
}

// absorb adds a worker trainer's accumulated gradients into tr's buffers and
// zeroes the worker's, readying it for the next batch.
func (tr *trainer) absorb(w *trainer) {
	dst, src := tr.gradTensors(), w.gradTensors()
	for k := range dst {
		vec.Vector(dst[k]).Add(src[k])
		vec.Vector(src[k]).Zero()
	}
}

// trainOne runs forward + BPTT on one sequence and applies an Adam step —
// the BatchSize=1 path, and the entry point the gradient-check test drives.
func (tr *trainer) trainOne(ids []int) (float64, int) {
	loss, n := tr.accumulate(ids)
	tr.opt.step(tr.m.Cfg.GradClip)
	return loss, n
}

// accumulate runs forward + BPTT on one sequence, adding parameter gradients
// into tr's buffers without applying an optimizer step. It returns the
// summed cross-entropy loss and the number of predicted tokens.
func (tr *trainer) accumulate(ids []int) (float64, int) {
	if len(ids) == 0 {
		return 0, 0
	}
	m := tr.m
	H := m.Cfg.HiddenDim

	// ----- encoder forward -----
	encSteps := make([]*step, len(ids))
	h, c := vec.New(H), vec.New(H)
	for t, id := range ids {
		encSteps[t] = m.Enc.forward(m.Embed.Row(id), h, c)
		h, c = encSteps[t].h, encSteps[t].c
	}

	// ----- decoder forward (teacher forcing) -----
	// inputs:  BOS, w1, ..., wn
	// targets: w1, ..., wn, EOS
	inputs := make([]int, 0, len(ids)+1)
	inputs = append(inputs, vocab.BOS)
	inputs = append(inputs, ids...)
	targets := make([]int, 0, len(ids)+1)
	targets = append(targets, ids...)
	targets = append(targets, vocab.EOS)

	decSteps := make([]*step, len(inputs))
	dh0, dc0 := h, c // decoder starts from the encoder's final state
	ph, pc := dh0, dc0
	var loss float64
	// dhOutPerStep holds the hidden-state gradient contributed by the output
	// layer at each step; the output-layer parameter gradients are
	// accumulated immediately during the forward pass.
	dhOutPerStep := make([]vec.Vector, len(inputs))
	for t, id := range inputs {
		decSteps[t] = m.Dec.forward(m.Embed.Row(id), ph, pc)
		ph, pc = decSteps[t].h, decSteps[t].c

		dhOut := vec.New(H)
		if m.Cfg.SampledSoftmax > 0 {
			loss += tr.sampledLossAndGrad(ph, targets[t], dhOut)
		} else {
			loss += tr.softmaxLossAndGrad(ph, targets[t], dhOut)
		}
		dhOutPerStep[t] = dhOut
	}

	// ----- decoder backward -----
	dh := vec.New(H)
	dc := vec.New(H)
	for t := len(inputs) - 1; t >= 0; t-- {
		st := decSteps[t]
		dh.Add(dhOutPerStep[t])
		dx, dPrevH, dPrevC := m.Dec.backward(st, dh, dc, tr.decG)
		tr.dEmbed.Row(inputs[t]).Add(dx)
		dh, dc = dPrevH, dPrevC
	}

	// ----- encoder backward (gradient flows in from decoder initial state) -----
	for t := len(ids) - 1; t >= 0; t-- {
		st := encSteps[t]
		dx, dPrevH, dPrevC := m.Enc.backward(st, dh, dc, tr.encG)
		tr.dEmbed.Row(ids[t]).Add(dx)
		dh, dc = dPrevH, dPrevC
	}

	return loss, len(targets)
}

// softmaxLossAndGrad computes full-softmax cross-entropy at one decoder step,
// accumulating output-layer gradients and writing the hidden-state gradient
// into dhOut.
func (tr *trainer) softmaxLossAndGrad(h vec.Vector, target int, dhOut vec.Vector) float64 {
	m := tr.m
	m.OutW.MulVec(tr.logits, h)
	tr.logits.Add(m.OutB)
	vec.Softmax(tr.probs, tr.logits)
	p := tr.probs[target]
	if p < 1e-12 {
		p = 1e-12
	}
	// probs is not needed after this step, so the loss gradient dl = probs -
	// onehot(target) is formed in place instead of copying the V-length
	// vector per decoder step.
	dl := tr.probs
	dl[target] -= 1
	tr.dOutW.AddOuterScaled(1, dl, h)
	tr.dOutB.Add(dl)
	m.OutW.MulVecT(dhOut, dl)
	return -math.Log(p)
}

// sampledLossAndGrad computes the NCE (negative-sampling) reconstruction loss
// at one decoder step: one positive logit for the target plus
// Cfg.SampledSoftmax noise tokens drawn from the unigram^0.75 table.
func (tr *trainer) sampledLossAndGrad(h vec.Vector, target int, dhOut vec.Vector) float64 {
	m := tr.m
	var loss float64
	for k := 0; k <= m.Cfg.SampledSoftmax; k++ {
		id := target
		label := 1.0
		if k > 0 {
			id = m.Vocab.SampleNegative(tr.rng, target)
			if id == target {
				continue
			}
			label = 0
		}
		row := m.OutW.Row(id)
		f := vec.FastSigmoid(vec.Dot(row, h) + m.OutB[id])
		g := f - label // d(loss)/d(logit)
		if label == 1 {
			loss += -math.Log(math.Max(f, 1e-12))
		} else {
			loss += -math.Log(math.Max(1-f, 1e-12))
		}
		dhOut.AddScaled(g, row)
		tr.dOutW.Row(id).AddScaled(g, h)
		tr.dOutB[id] += g
	}
	return loss
}

// modelGob is the serialized form of Model.
type modelGob struct {
	Cfg                Config
	Words              []string
	Counts             []int64
	Total              int64
	Embed              []float64
	EncWx, EncWh, EncB []float64
	DecWx, DecWh, DecB []float64
	OutW, OutB         []float64
	LossHistory        []float64
}

// Save writes the model in gob format.
func (m *Model) Save(w io.Writer) error {
	words := make([]string, m.Vocab.Size())
	counts := make([]int64, m.Vocab.Size())
	for i := 0; i < m.Vocab.Size(); i++ {
		words[i] = m.Vocab.Word(i)
		counts[i] = m.Vocab.Count(i)
	}
	g := modelGob{
		Cfg: m.Cfg, Words: words, Counts: counts, Total: m.Vocab.TotalTokens(),
		Embed: m.Embed.Data,
		EncWx: m.Enc.Wx.Data, EncWh: m.Enc.Wh.Data, EncB: m.Enc.B,
		DecWx: m.Dec.Wx.Data, DecWh: m.Dec.Wh.Data, DecB: m.Dec.B,
		OutW: m.OutW.Data, OutB: m.OutB,
		LossHistory: m.LossHistory,
	}
	return gob.NewEncoder(w).Encode(&g)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var g modelGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("lstm: load: %w", err)
	}
	v := vocab.Restore(g.Words, g.Counts, g.Total)
	size := len(g.Words)
	E, H := g.Cfg.EmbedDim, g.Cfg.HiddenDim
	m := &Model{
		Cfg:   g.Cfg,
		Vocab: v,
		Embed: &vec.Matrix{Rows: size, Cols: E, Data: g.Embed},
		Enc: &cell{
			Wx: &vec.Matrix{Rows: 4 * H, Cols: E, Data: g.EncWx},
			Wh: &vec.Matrix{Rows: 4 * H, Cols: H, Data: g.EncWh},
			B:  g.EncB, hidden: H, input: E,
		},
		Dec: &cell{
			Wx: &vec.Matrix{Rows: 4 * H, Cols: E, Data: g.DecWx},
			Wh: &vec.Matrix{Rows: 4 * H, Cols: H, Data: g.DecWh},
			B:  g.DecB, hidden: H, input: E,
		},
		OutW:        &vec.Matrix{Rows: size, Cols: H, Data: g.OutW},
		OutB:        g.OutB,
		LossHistory: g.LossHistory,
	}
	return m, nil
}
