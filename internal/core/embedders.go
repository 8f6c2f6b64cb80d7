package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

// EmbedTokens implements TokenizedEmbedder.
//
//querc:hotpath
func (e *Doc2VecEmbedder) EmbedTokens(tokens []string) vec.Vector {
	return e.Model.Infer(tokens)
}

// EmbedTokensBatch embeds a batch of pre-tokenized queries, inferring
// identical sequences once and fanning distinct ones across the model's
// inference pool. No service path calls it (EmbedAllCached and ProcessBatch
// embed per text on their own pools); it is kept for the benchmark ladder,
// which measures doc2vec.InferBatch through it.
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

// EmbedTokens implements TokenizedEmbedder.
//
//querc:hotpath
func (e *LSTMEmbedder) EmbedTokens(tokens []string) vec.Vector {
	return e.Model.Encode(tokens)
}

// Dim implements Embedder.
func (e *LSTMEmbedder) Dim() int { return e.Model.Dim() }

// Name implements Embedder.
func (e *LSTMEmbedder) Name() string { return "lstm(" + e.ModelName + ")" }

// EmbedAll embeds a batch of query texts (EmbedAllCached without a cache).
func EmbedAll(e Embedder, sqls []string, workers int) []vec.Vector {
	return EmbedAllCached(e, sqls, workers, nil)
}

// EmbedAllCached is the one batch-embed routine: it returns one vector per
// input, fanning out across workers goroutines (workers <= 0 uses
// GOMAXPROCS, the ProcessBatch default). The batch is deduplicated by text
// up front, as ProcessBatch does, and workers claim 64-text chunks of the
// distinct texts. Each text is looked up in cache (nil disables), embedded on
// a miss — through EmbedTokens for a TokenizedEmbedder — and put back.
// Retraining several labelers on one embedder thus embeds the training set
// once, later calls served from warm vectors. Repeats share one (immutable)
// vector.
func EmbedAllCached(e Embedder, sqls []string, workers int, cache *VectorCache) []vec.Vector {
	first := make(map[string]int, len(sqls))
	var uniq []string
	for _, sql := range sqls {
		if _, ok := first[sql]; !ok {
			first[sql] = len(uniq)
			uniq = append(uniq, sql)
		}
	}
	name := e.Name()
	te, tokOK := e.(TokenizedEmbedder)
	vecs := make([]vec.Vector, len(uniq))
	embed := func(i int) {
		v, ok := cache.Get(name, uniq[i])
		if !ok {
			if tokOK {
				v = te.EmbedTokens(TokenizeForEmbedding(uniq[i]))
			} else {
				v = e.Embed(uniq[i])
			}
			cache.Put(name, uniq[i], v)
		}
		vecs[i] = v
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (len(uniq)+batchChunk-1)/batchChunk)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(batchChunk)) - batchChunk
				if lo >= len(uniq) {
					return
				}
				for i := lo; i < min(lo+batchChunk, len(uniq)); i++ {
					embed(i)
				}
			}
		}()
	}
	wg.Wait()
	out := make([]vec.Vector, len(sqls))
	for i, sql := range sqls {
		out[i] = vecs[first[sql]]
	}
	return out
}
