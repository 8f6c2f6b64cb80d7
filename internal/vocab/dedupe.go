package vocab

import (
	"sync"
	"sync/atomic"
)

// Batch dedupe helpers behind doc2vec.InferBatch, which runs the
// (deterministic) model once per distinct token sequence. No service path
// calls InferBatch — the runtime deduplicates by text before embedding — so
// these are kept for the benchmark ladder's doc2vec.infer_batch_us_per_doc. The key is built by
// appending into one reusable byte buffer instead of strings.Join-ing per
// document, so duplicate documents — the common case — cost zero allocations
// to recognize.

// AppendKey appends a collision-free map key for the token sequence to dst
// and returns the extended slice: each token is prefixed by its length so
// ("ab","c") and ("a","bc") key differently even if a token contained the
// separator.
func AppendKey(dst []byte, tokens []string) []byte {
	for _, t := range tokens {
		n := len(t)
		for n >= 0x80 {
			dst = append(dst, byte(n)|0x80)
			n >>= 7
		}
		dst = append(dst, byte(n))
		dst = append(dst, t...)
	}
	return dst
}

// ForEachRep runs fn once per distinct token sequence in docs (identified
// by first-occurrence index), fanning the calls across at most maxWorkers
// goroutines, and returns repOf mapping every document index to its
// representative's index. This is the dedupe-then-fan-out skeleton of
// doc2vec.InferBatch: fn must be safe to call concurrently
// for distinct indices (model inference is read-only) and typically writes
// out[i]; the caller then aliases out[i] = out[repOf[i]] for the duplicates.
func ForEachRep(docs [][]string, maxWorkers int, fn func(i int)) (repOf []int) {
	reps, repOf := DedupeDocs(docs)
	workers := maxWorkers
	if workers > len(reps) {
		workers = len(reps)
	}
	if workers <= 1 {
		for _, i := range reps {
			fn(i)
		}
		return repOf
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reps) {
					return
				}
				fn(reps[k])
			}
		}()
	}
	wg.Wait()
	return repOf
}

// DedupeDocs maps every document to the index of its first occurrence.
// repOf[i] == i exactly when docs[i] is the first occurrence of its token
// sequence; reps lists those first-occurrence indices in input order. The
// caller runs the model once per rep and aliases the rest.
func DedupeDocs(docs [][]string) (reps []int, repOf []int) {
	repOf = make([]int, len(docs))
	seen := make(map[string]int, len(docs))
	var key []byte
	for i, doc := range docs {
		key = AppendKey(key[:0], doc)
		if j, ok := seen[string(key)]; ok {
			repOf[i] = j
			continue
		}
		seen[string(key)] = i
		repOf[i] = i
		reps = append(reps, i)
	}
	return reps, repOf
}
