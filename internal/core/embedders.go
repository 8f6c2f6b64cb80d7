package core

import (
	"fmt"
	"runtime"

	"querc/internal/doc2vec"
	"querc/internal/lstm"
	"querc/internal/sqllex"
	"querc/internal/vec"
)

// TokenizeForEmbedding lexes query text under sqllex.EmbeddingOptions, the
// one normalization applied before embedding (case folded, comments dropped,
// literals kept for the labeling experiments of §5.2).
func TokenizeForEmbedding(sql string) []string {
	return sqllex.Strings(sql, sqllex.EmbeddingOptions())
}

// Doc2VecEmbedder adapts a trained doc2vec model to the Embedder interface.
type Doc2VecEmbedder struct {
	Model     *doc2vec.Model
	ModelName string
}

// NewDoc2VecEmbedder trains a Doc2Vec embedder on the given corpus of query
// texts. name identifies the training corpus (e.g. "tpch", "snowflake").
func NewDoc2VecEmbedder(name string, corpus []string, cfg doc2vec.Config) (*Doc2VecEmbedder, error) {
	docs := make([][]string, len(corpus))
	for i, sql := range corpus {
		docs[i] = TokenizeForEmbedding(sql)
	}
	m, err := doc2vec.Train(docs, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: train doc2vec %q: %w", name, err)
	}
	return &Doc2VecEmbedder{Model: m, ModelName: name}, nil
}

// Embed implements Embedder.
func (e *Doc2VecEmbedder) Embed(sql string) vec.Vector {
	return e.Model.Infer(TokenizeForEmbedding(sql))
}

// EmbedBatch implements BatchEmbedder: identical token sequences are
// inferred once and share one vector.
func (e *Doc2VecEmbedder) EmbedBatch(sqls []string) []vec.Vector {
	docs := make([][]string, len(sqls))
	for i, sql := range sqls {
		docs[i] = TokenizeForEmbedding(sql)
	}
	return e.Model.InferBatch(docs)
}

// EmbedTokens implements TokenizedEmbedder.
//
//querc:hotpath
func (e *Doc2VecEmbedder) EmbedTokens(tokens []string) vec.Vector {
	return e.Model.Infer(tokens)
}

// EmbedTokensBatch implements TokenizedEmbedder: identical sequences are
// inferred once, distinct ones fan out across the model's inference pool.
func (e *Doc2VecEmbedder) EmbedTokensBatch(docs [][]string) []vec.Vector {
	return e.Model.InferBatch(docs)
}

// Dim implements Embedder.
func (e *Doc2VecEmbedder) Dim() int { return e.Model.Dim() }

// Name implements Embedder.
func (e *Doc2VecEmbedder) Name() string { return "doc2vec(" + e.ModelName + ")" }

// LSTMEmbedder adapts a trained LSTM autoencoder to the Embedder interface.
type LSTMEmbedder struct {
	Model     *lstm.Model
	ModelName string
}

// NewLSTMEmbedder trains an LSTM autoencoder embedder on the given corpus.
func NewLSTMEmbedder(name string, corpus []string, cfg lstm.Config) (*LSTMEmbedder, error) {
	docs := make([][]string, len(corpus))
	for i, sql := range corpus {
		docs[i] = TokenizeForEmbedding(sql)
	}
	m, err := lstm.Train(docs, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: train lstm %q: %w", name, err)
	}
	return &LSTMEmbedder{Model: m, ModelName: name}, nil
}

// Embed implements Embedder.
func (e *LSTMEmbedder) Embed(sql string) vec.Vector {
	return e.Model.Encode(TokenizeForEmbedding(sql))
}

// EmbedBatch implements BatchEmbedder: identical token sequences are
// encoded once and share one vector.
func (e *LSTMEmbedder) EmbedBatch(sqls []string) []vec.Vector {
	docs := make([][]string, len(sqls))
	for i, sql := range sqls {
		docs[i] = TokenizeForEmbedding(sql)
	}
	return e.Model.EncodeBatch(docs)
}

// EmbedTokens implements TokenizedEmbedder.
//
//querc:hotpath
func (e *LSTMEmbedder) EmbedTokens(tokens []string) vec.Vector {
	return e.Model.Encode(tokens)
}

// EmbedTokensBatch implements TokenizedEmbedder: identical sequences are
// encoded once, distinct ones fan out across the model's encoder pool.
func (e *LSTMEmbedder) EmbedTokensBatch(docs [][]string) []vec.Vector {
	return e.Model.EncodeBatch(docs)
}

// Dim implements Embedder.
func (e *LSTMEmbedder) Dim() int { return e.Model.Dim() }

// Name implements Embedder.
func (e *LSTMEmbedder) Name() string { return "lstm(" + e.ModelName + ")" }

// EmbedTexts embeds sqls in one call, routing through the EmbedBatch fast
// path (with its identical-input dedupe) when e implements BatchEmbedder.
// Note the learned adapters' batch paths may fan distinct inputs across
// their own bounded pool, so callers that already run one worker per core
// (ProcessBatch, EmbedAll) take the serial EmbedTokens path of a
// TokenizedEmbedder instead and reach EmbedTexts only for string-only
// embedders.
func EmbedTexts(e Embedder, sqls []string) []vec.Vector {
	if be, ok := e.(BatchEmbedder); ok {
		return be.EmbedBatch(sqls)
	}
	out := make([]vec.Vector, len(sqls))
	for i, sql := range sqls {
		out[i] = e.Embed(sql)
	}
	return out
}

// EmbedAll embeds a batch of query texts, fanning out across workers
// goroutines (embedding is read-only on the model). workers <= 0 uses
// GOMAXPROCS, matching the ProcessBatch default. Tokenized embedders are
// driven serially per worker with a worker-local dedupe memo (this pool is
// already one goroutine per core, so the adapters' internal batch fan-out
// would only oversubscribe); other embedders go through the BatchEmbedder
// fast path per chunk.
func EmbedAll(e Embedder, sqls []string, workers int) []vec.Vector {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]vec.Vector, len(sqls))
	te, tokOK := e.(TokenizedEmbedder)
	type job struct{ lo, hi int }
	jobs := make(chan job, workers)
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var memo map[string]vec.Vector
			if tokOK {
				memo = make(map[string]vec.Vector)
			}
			for j := range jobs {
				if tokOK {
					for i := j.lo; i < j.hi; i++ {
						if v, ok := memo[sqls[i]]; ok {
							out[i] = v
							continue
						}
						v := te.EmbedTokens(TokenizeForEmbedding(sqls[i]))
						memo[sqls[i]] = v
						out[i] = v
					}
					continue
				}
				copy(out[j.lo:j.hi], EmbedTexts(e, sqls[j.lo:j.hi]))
			}
			done <- struct{}{}
		}()
	}
	const chunk = 64
	for lo := 0; lo < len(sqls); lo += chunk {
		hi := lo + chunk
		if hi > len(sqls) {
			hi = len(sqls)
		}
		jobs <- job{lo, hi}
	}
	close(jobs)
	for w := 0; w < workers; w++ {
		<-done
	}
	return out
}

// EmbedAllCached embeds sqls like EmbedAll but embeds each distinct text at
// most once, consulting (and filling) the shared vector cache first. cache
// may be nil, in which case only the in-call dedupe applies. This is the
// batch-embed path of the training module: retraining several labelers on
// one embedder embeds the training set once, with later calls served from
// warm vectors. Duplicated inputs share one (immutable) vector.
func EmbedAllCached(e Embedder, sqls []string, workers int, cache *VectorCache) []vec.Vector {
	name := e.Name()
	vecs := make(map[string]vec.Vector, len(sqls))
	var miss []string
	for _, sql := range sqls {
		if _, ok := vecs[sql]; ok {
			continue
		}
		if v, ok := cache.Get(name, sql); ok {
			vecs[sql] = v
			continue
		}
		vecs[sql] = nil
		miss = append(miss, sql)
	}
	if len(miss) > 0 {
		vs := EmbedAll(e, miss, workers)
		for i, sql := range miss {
			vecs[sql] = vs[i]
			cache.Put(name, sql, vs[i])
		}
	}
	out := make([]vec.Vector, len(sqls))
	for i, sql := range sqls {
		out[i] = vecs[sql]
	}
	return out
}
