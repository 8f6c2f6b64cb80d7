// Package doc2vec implements the paragraph-vector embedding models of Le &
// Mikolov ("Distributed Representations of Sentences and Documents"), the
// first of the two embedders evaluated in the paper (§3, "context prediction
// models").
//
// Both training modes are provided:
//
//   - PV-DM: the document vector is averaged with a fixed context window of
//     word vectors to predict the center word.
//   - PV-DBOW: the document vector alone predicts each word of the document.
//
// Training uses negative sampling with the unigram^0.75 distribution, a
// linearly decaying learning rate, and optional frequent-token subsampling —
// the same hyper-parameter surface as the reference implementation. Unseen
// queries are embedded by inference: the word matrices are frozen and a fresh
// document vector is fitted by gradient steps.
//
// Training parallelizes Hogwild-style (Recht et al.): Config.Workers
// goroutines shard the corpus and update the shared word matrices without
// locks, the same scheme as the reference word2vec implementation. Workers=1
// keeps the fully deterministic serial schedule (same seed + corpus => same
// model, bit for bit). Inference is allocation-light — per-model pooled
// scratch, an inline xorshift RNG seeded from the document hash.
package doc2vec

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"querc/internal/vec"
	"querc/internal/vocab"
)

// Mode selects the training objective.
type Mode int

// Training modes.
const (
	PVDM Mode = iota
	PVDBOW
)

func (m Mode) String() string {
	if m == PVDBOW {
		return "pv-dbow"
	}
	return "pv-dm"
}

// Config holds the hyper-parameters of a Doc2Vec model.
type Config struct {
	Dim         int     // embedding dimensionality
	Window      int     // context window radius (PV-DM)
	Negative    int     // negative samples per positive
	Epochs      int     // full passes over the corpus
	Alpha       float64 // initial learning rate
	MinAlpha    float64 // final learning rate
	MinCount    int64   // vocabulary frequency cutoff
	Subsample   float64 // frequent-token subsampling threshold (0 disables)
	Mode        Mode
	InferEpochs int   // gradient passes used by Infer
	Seed        int64 // RNG seed; same seed + corpus => same model (Workers=1)
	// Workers is the number of Hogwild training goroutines. 0 uses
	// GOMAXPROCS. 1 runs the serial schedule, whose output is byte-identical
	// across runs for a fixed (Seed, corpus); with Workers > 1 the lock-free
	// updates make training a stochastic function of scheduling (the races
	// are part of the algorithm — see DESIGN.md "Performance model").
	Workers int
}

// DefaultConfig returns the hyper-parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		Dim:         64,
		Window:      5,
		Negative:    5,
		Epochs:      10,
		Alpha:       0.05,
		MinAlpha:    0.0001,
		MinCount:    2,
		Subsample:   1e-4,
		Mode:        PVDM,
		InferEpochs: 20,
		Seed:        1,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Dim <= 0 {
		c.Dim = d.Dim
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.Negative <= 0 {
		c.Negative = d.Negative
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.Alpha <= 0 {
		c.Alpha = d.Alpha
	}
	if c.MinAlpha <= 0 {
		c.MinAlpha = d.MinAlpha
	}
	if c.MinCount <= 0 {
		c.MinCount = d.MinCount
	}
	if c.InferEpochs <= 0 {
		c.InferEpochs = d.InferEpochs
	}
}

// Model is a trained Doc2Vec embedder.
type Model struct {
	Cfg     Config
	Vocab   *vocab.Vocabulary
	WordIn  *vec.Matrix // input word vectors, Size x Dim
	WordOut *vec.Matrix // output word vectors, Size x Dim
	Docs    *vec.Matrix // training document vectors, NumDocs x Dim

	// inferPool recycles per-inference scratch (token-ID buffer, the two
	// Dim-length kernel vectors and the PV-DM window tables), so concurrent
	// Infer calls allocate only their returned document vector.
	inferPool sync.Pool
}

// inferScratch is the pooled per-call state of Infer. Besides the token IDs
// and the ctx/grad kernel vectors it holds PV-DM's frozen windows, filled
// once per call by hoistWindows: for the k-th position whose target is a
// real word, targets[k] is that target, sums[k*Dim:(k+1)*Dim] the sum of its
// window's input word vectors, and invs[k] = 1/n, where n counts the window
// words plus the document vector. The window slices hold one entry per token
// and grow only when a longer document arrives.
type inferScratch struct {
	ids       []int
	ctx, grad vec.Vector
	targets   []int
	sums      []float64
	invs      []float64
}

// Train fits a Doc2Vec model on corpus, a slice of token sequences.
func Train(corpus [][]string, cfg Config) (*Model, error) {
	cfg.fillDefaults()
	if len(corpus) == 0 {
		return nil, fmt.Errorf("doc2vec: empty corpus")
	}
	b := vocab.NewBuilder()
	for _, doc := range corpus {
		b.Add(doc)
	}
	v := b.Build(cfg.MinCount)
	if v.Size() <= vocab.NumReserved {
		return nil, fmt.Errorf("doc2vec: vocabulary empty after min-count %d", cfg.MinCount)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Cfg:     cfg,
		Vocab:   v,
		WordIn:  vec.NewRandomMatrix(rng, v.Size(), cfg.Dim, 0.5/float64(cfg.Dim)),
		WordOut: vec.NewMatrix(v.Size(), cfg.Dim),
		Docs:    vec.NewRandomMatrix(rng, len(corpus), cfg.Dim, 0.5/float64(cfg.Dim)),
	}

	encoded := make([][]int, len(corpus))
	for i, doc := range corpus {
		encoded[i] = v.Encode(doc)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(encoded) {
		workers = len(encoded)
	}
	if workers <= 1 {
		// Serial schedule: deterministic for a fixed (Seed, corpus). The
		// Workers=1 output is pinned by TestTrainWorkers1Golden.
		totalSteps := cfg.Epochs * len(corpus)
		step := 0
		ctx := vec.New(cfg.Dim)
		grad := vec.New(cfg.Dim)
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for docID, ids := range encoded {
				alpha := cfg.Alpha - (cfg.Alpha-cfg.MinAlpha)*float64(step)/float64(totalSteps)
				step++
				sampled := v.Subsample(rng, ids, cfg.Subsample)
				m.trainDoc(rng, m.Docs.Row(docID), sampled, alpha, true, ctx, grad)
			}
		}
	} else {
		m.trainHogwild(encoded, workers)
	}
	return m, nil
}

// trainHogwild runs Epochs passes over the corpus across workers goroutines.
// Each worker owns a fixed strided shard of documents (docID ≡ worker mod
// workers) — strided rather than contiguous so every worker sweeps a
// representative cross-section of the corpus per epoch even when the
// scheduler runs goroutines in long slices, and document vectors are never
// contended. Each worker has its own RNG stream seeded from (Seed, worker);
// the shared word matrices are updated lock-free, Hogwild-style — the
// sparse, small-stepped updates make the races part of the stochastic noise
// rather than a correctness hazard. The learning rate decays on a shared
// atomic step counter, matching the serial schedule's global progress. Under
// the race detector the updates are serialized by a build-tagged mutex
// (race.go) so -race verifies the orchestration rather than the by-design
// races.
func (m *Model) trainHogwild(encoded [][]int, workers int) {
	cfg := m.Cfg
	totalSteps := cfg.Epochs * len(encoded)
	var step atomic.Int64
	rngs := make([]*rand.Rand, workers)
	ctxs := make([]vec.Vector, workers)
	grads := make([]vec.Vector, workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(workerSeed(cfg.Seed, w)))
		ctxs[w] = vec.New(cfg.Dim)
		grads[w] = vec.New(cfg.Dim)
	}
	// The barrier between epochs matters: without it a worker can race ahead
	// through several of its own epochs while another has barely started,
	// bunching each document's updates into a narrow alpha window instead of
	// spreading them across the whole decay schedule (visible as a several-
	// point CV-accuracy loss whenever scheduling is coarse).
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rngs[w]
				for docID := w; docID < len(encoded); docID += workers {
					s := step.Add(1) - 1
					alpha := cfg.Alpha - (cfg.Alpha-cfg.MinAlpha)*float64(s)/float64(totalSteps)
					sampled := m.Vocab.Subsample(rng, encoded[docID], cfg.Subsample)
					hogwildLock()
					// Hogwild!: workers update the shared word/doc matrices
					// with no per-row locking; sparse gradients make the
					// collisions statistically harmless, and the race
					// detector builds serialize via hogwildLock (race.go).
					//querc:allow-race Hogwild! lock-free SGD, see above
					m.trainDoc(rng, m.Docs.Row(docID), sampled, alpha, true, ctxs[w], grads[w])
					hogwildUnlock()
				}
			}(w)
		}
		wg.Wait()
	}
}

// workerSeed derives an independent RNG stream seed for one Hogwild worker
// from the model seed (splitmix64 finalizer over the pair).
func workerSeed(seed int64, worker int) int64 {
	z := uint64(seed) + uint64(worker+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// trainDoc runs one pass of the configured objective over one document,
// updating docVec and (when updateWords) the word matrices. ctx and grad are
// scratch vectors of length Dim.
func (m *Model) trainDoc(rng vocab.RNG, docVec vec.Vector, ids []int, alpha float64, updateWords bool, ctx, grad vec.Vector) {
	if len(ids) == 0 {
		return
	}
	switch m.Cfg.Mode {
	case PVDBOW:
		for _, target := range ids {
			if target < vocab.NumReserved {
				continue
			}
			m.negSampleStep(rng, docVec, target, alpha, updateWords, grad)
		}
	default: // PVDM
		w := m.Cfg.Window
		for pos, target := range ids {
			if target < vocab.NumReserved {
				continue
			}
			lo, hi := pos-w, pos+w
			if lo < 0 {
				lo = 0
			}
			if hi >= len(ids) {
				hi = len(ids) - 1
			}
			// ctx = mean(doc vector, window word vectors)
			copy(ctx, docVec)
			n := 1
			for i := lo; i <= hi; i++ {
				if i == pos || ids[i] < vocab.NumReserved {
					continue
				}
				ctx.Add(m.WordIn.Row(ids[i]))
				n++
			}
			ctx.Scale(1 / float64(n))

			grad.Zero()
			m.negSampleInto(rng, ctx, target, alpha, updateWords, grad)

			// Distribute the context gradient to the doc vector and the
			// participating word vectors (standard PV-DM update).
			docVec.Add(grad)
			if updateWords {
				for i := lo; i <= hi; i++ {
					if i == pos || ids[i] < vocab.NumReserved {
						continue
					}
					m.WordIn.Row(ids[i]).Add(grad)
				}
			}
		}
	}
}

// negSampleStep applies one negative-sampling update predicting target from
// input, writing the input-side gradient straight into input.
func (m *Model) negSampleStep(rng vocab.RNG, input vec.Vector, target int, alpha float64, updateWords bool, grad vec.Vector) {
	grad.Zero()
	m.negSampleInto(rng, input, target, alpha, updateWords, grad)
	input.Add(grad)
}

// negSampleInto accumulates the input-side gradient of one positive +
// Negative sampled updates into grad, updating WordOut rows when updateWords.
// It runs on the fused vec kernels: one pass for the activation
// (DotSigmoid), one pass for the two-sided update (AddScaledBoth).
func (m *Model) negSampleInto(rng vocab.RNG, input vec.Vector, target int, alpha float64, updateWords bool, grad vec.Vector) {
	for k := 0; k <= m.Cfg.Negative; k++ {
		var label float64
		var out vec.Vector
		if k == 0 {
			label = 1
			out = m.WordOut.Row(target)
		} else {
			neg := m.Vocab.SampleNegative(rng, target)
			if neg == target || neg < vocab.NumReserved {
				continue
			}
			label = 0
			out = m.WordOut.Row(neg)
		}
		f := vec.DotSigmoid(input, out)
		g := alpha * (label - f)
		if updateWords {
			vec.AddScaledBoth(grad, out, input, g)
		} else {
			grad.AddScaled(g, out)
		}
	}
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.Cfg.Dim }

// DocVector returns the trained vector of corpus document i. The returned
// vector aliases the model's storage — callers must treat it as immutable
// (clone before mutating).
func (m *Model) DocVector(i int) vec.Vector { return m.Docs.Row(i) }

// Infer embeds an unseen token sequence by fitting a fresh document vector
// against the frozen word matrices. The RNG is an inline xorshift generator
// seeded from the model seed and a hash of the tokens, so inference is
// deterministic per input, and all scratch state beyond the returned vector
// comes from a per-model pool — one allocation per call on the steady state.
// Infer is safe for concurrent use (the word matrices are read-only here).
//
// PV-DM inference runs trainDoc's PV-DM step with updateWords=false, except
// that each window's word-vector sum is computed once per call
// (hoistWindows) instead of once per epoch: the word vectors are frozen, so
// only the document vector changes between epochs, and each position's
// context is (docVec + sum) / n in one pass. Adding the window first moves
// the context by an ulp at most, which reaches the output only through
// FastSigmoid's table index and so leaves the vectors bit-identical in
// practice (TestInferHoistedMatchesPerEpoch pins it). PV-DBOW has no
// window and runs trainDoc itself.
//
//querc:hotpath
func (m *Model) Infer(tokens []string) vec.Vector {
	sc, _ := m.inferPool.Get().(*inferScratch)
	if sc == nil {
		sc = &inferScratch{ctx: vec.New(m.Cfg.Dim), grad: vec.New(m.Cfg.Dim)}
	}
	sc.ids = m.Vocab.EncodeInto(sc.ids[:0], tokens)
	ids := sc.ids
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
	dim, dbow := m.Cfg.Dim, m.Cfg.Mode == PVDBOW
	n := 0
	if !dbow {
		n = m.hoistWindows(sc, ids)
	}
	ctx, grad, d := sc.ctx[:dim], sc.grad, docVec[:dim]
	alpha0 := m.Cfg.Alpha
	for e := 0; e < m.Cfg.InferEpochs; e++ {
		alpha := alpha0 - (alpha0-m.Cfg.MinAlpha)*float64(e)/float64(m.Cfg.InferEpochs)
		if dbow {
			m.trainDoc(&rng, docVec, ids, alpha, false, ctx, grad)
			continue
		}
		for k := 0; k < n; k++ {
			// ctx = mean(doc vector, window word vectors)
			sum, inv := sc.sums[k*dim:(k+1)*dim], sc.invs[k]
			for i := range ctx {
				ctx[i] = (d[i] + sum[i]) * inv
			}
			grad.Zero()
			m.negSampleInto(&rng, ctx, sc.targets[k], alpha, false, grad)
			docVec.Add(grad)
		}
	}
	m.inferPool.Put(sc)
	return docVec
}

// hoistWindows fills sc's window tables for ids and returns how many
// positions they hold. It visits the positions trainDoc's PV-DM loop trains,
// with the same window bounds and skips, and sums each window's input word
// vectors directly (no sliding sum, whose subtractions would add rounding).
func (m *Model) hoistWindows(sc *inferScratch, ids []int) int {
	dim, w := m.Cfg.Dim, m.Cfg.Window
	if cap(sc.targets) < len(ids) {
		sc.targets = make([]int, len(ids))
		sc.invs = make([]float64, len(ids))
		sc.sums = make([]float64, len(ids)*dim)
	}
	k := 0
	for pos, target := range ids {
		if target < vocab.NumReserved {
			continue
		}
		lo, hi := max(pos-w, 0), min(pos+w, len(ids)-1)
		sum := vec.Vector(sc.sums[k*dim : (k+1)*dim])
		sum.Zero()
		n := 1
		for i := lo; i <= hi; i++ {
			if i == pos || ids[i] < vocab.NumReserved {
				continue
			}
			sum.Add(m.WordIn.Row(ids[i]))
			n++
		}
		sc.targets[k] = target
		sc.invs[k] = 1 / float64(n)
		k++
	}
	return k
}

// InferBatch embeds a batch of token sequences, running inference once per
// distinct sequence: Infer is deterministic per input, so duplicates — which
// dominate production workloads — share the first occurrence's vector. The
// distinct sequences fan out across a bounded worker pool (inference is
// read-only on the model). The returned slice is index-aligned with docs;
// aliased vectors must be treated as immutable by callers. No service path
// calls it (the runtime embeds per distinct text on its own pool); it is
// kept for the benchmark ladder's doc2vec.infer_batch_us_per_doc.
func (m *Model) InferBatch(docs [][]string) []vec.Vector {
	out := make([]vec.Vector, len(docs))
	if len(docs) == 0 {
		return out
	}
	repOf := vocab.ForEachRep(docs, runtime.GOMAXPROCS(0), func(i int) {
		out[i] = m.Infer(docs[i])
	})
	for i, r := range repOf {
		out[i] = out[r]
	}
	return out
}

// modelGob is the serialized form of Model.
type modelGob struct {
	Cfg             Config
	Words           []string
	Counts          []int64
	Total           int64
	WordIn, WordOut []float64
	Docs            []float64
	NumDocs         int
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
		Cfg:     m.Cfg,
		Words:   words,
		Counts:  counts,
		Total:   m.Vocab.TotalTokens(),
		WordIn:  m.WordIn.Data,
		WordOut: m.WordOut.Data,
		Docs:    m.Docs.Data,
		NumDocs: m.Docs.Rows,
	}
	return gob.NewEncoder(w).Encode(&g)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var g modelGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("doc2vec: load: %w", err)
	}
	v := vocab.Restore(g.Words, g.Counts, g.Total)
	size := len(g.Words)
	m := &Model{
		Cfg:     g.Cfg,
		Vocab:   v,
		WordIn:  &vec.Matrix{Rows: size, Cols: g.Cfg.Dim, Data: g.WordIn},
		WordOut: &vec.Matrix{Rows: size, Cols: g.Cfg.Dim, Data: g.WordOut},
		Docs:    &vec.Matrix{Rows: g.NumDocs, Cols: g.Cfg.Dim, Data: g.Docs},
	}
	return m, nil
}
