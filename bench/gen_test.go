package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"testing"
)

// streamHash hashes every request body of r in order.
func streamHash(r *requests) [32]byte {
	h := sha256.New()
	var buf bytes.Buffer
	for i := 0; i < r.len(); i++ {
		r.body(i, &buf)
		h.Write(buf.Bytes())
	}
	return [32]byte(h.Sum(nil))
}

func TestSameSeedSameStream(t *testing.T) {
	for _, kind := range []string{"unique", "repeat", "batch"} {
		n := 3000
		if kind == "batch" {
			n = 40
		}
		a := streamHash(newRequests(kind, genCorpus(7), 7, n))
		b := streamHash(newRequests(kind, genCorpus(7), 7, n))
		c := streamHash(newRequests(kind, genCorpus(8), 8, n))
		if a != b {
			t.Errorf("%s: same seed gave different request streams", kind)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same request stream", kind)
		}
	}
}

func TestUniqueHasNoDuplicateTexts(t *testing.T) {
	r := newUnique(genCorpus(3), 3, 20000)
	seen := make(map[string]bool, r.len())
	for i := 0; i < r.len(); i++ {
		s := r.text(i, 0)
		if seen[s] {
			t.Fatalf("request %d repeats text %q", i, s)
		}
		seen[s] = true
	}
}

func TestRepeatPool(t *testing.T) {
	// The pool plus the corpus texts the retrains leave cached must fit
	// quercd's default vector cache, or "repeat" would still evict.
	corpus := genCorpus(5)
	texts := make(map[string]bool)
	for _, q := range corpus {
		texts[q.SQL] = true
	}
	if total := poolSize + len(texts); total >= 8192 {
		t.Fatalf("pool %d + %d corpus texts = %d does not fit the 8192-entry cache", poolSize, len(texts), total)
	}
	r := newRepeat(corpus, 5, 5000, 1)
	pool := make(map[string]bool)
	for _, p := range r.poolJSON {
		pool[string(p)] = true
	}
	if len(pool) != poolSize {
		t.Fatalf("pool has %d distinct texts, want %d", len(pool), poolSize)
	}
	// The first poolSize requests walk the pool, so a warm-up covering them
	// caches every text; later draws are skewed towards low ranks.
	for i := 0; i < poolSize; i++ {
		if r.draws[i] != int32(i) {
			t.Fatalf("draw %d = %d, want the pool walked in order", i, r.draws[i])
		}
	}
	low := 0
	for _, d := range r.draws[poolSize:] {
		if d < poolSize/10 {
			low++
		}
	}
	if share := float64(low) / float64(len(r.draws)-poolSize); share < 0.5 {
		t.Errorf("top tenth of the pool drew %.2f of requests, want a Zipf skew above 0.5", share)
	}
}

func TestBatchSlicing(t *testing.T) {
	r := newRepeat(genCorpus(2), 2, 12, batchSize)
	if r.len() != 12 {
		t.Fatalf("len = %d, want 12", r.len())
	}
	var buf bytes.Buffer
	for i := 0; i < r.len(); i++ {
		r.body(i, &buf)
		var req struct {
			SQLs    []string `json:"sqls"`
			Workers int      `json:"workers"`
		}
		if err := json.Unmarshal(buf.Bytes(), &req); err != nil {
			t.Fatalf("request %d is not JSON: %v", i, err)
		}
		if len(req.SQLs) != batchSize {
			t.Fatalf("request %d carries %d texts, want %d", i, len(req.SQLs), batchSize)
		}
		for k, sql := range req.SQLs {
			if sql != r.text(i, k) {
				t.Fatalf("request %d text %d: body and text() disagree", i, k)
			}
		}
	}
	if got := r.texts(1, 300); len(got) != 300 || got[0] != r.text(1, 0) || got[batchSize] != r.text(2, 0) {
		t.Errorf("texts(1, 300) does not flatten requests in send order")
	}
}

func TestStreamBodyAndTruth(t *testing.T) {
	corpus := genCorpus(4)
	for _, r := range []*requests{newUnique(corpus, 4, 50), newRepeat(corpus, 4, 50, 1)} {
		var buf bytes.Buffer
		for i := 0; i < r.len(); i++ {
			r.body(i, &buf)
			var req struct {
				SQL string `json:"sql"`
			}
			if err := json.Unmarshal(buf.Bytes(), &req); err != nil || req.SQL != r.text(i, 0) {
				t.Fatalf("request %d body %q does not carry text %q (%v)", i, buf.Bytes(), r.text(i, 0), err)
			}
			if r.truth(i, 0) == "" {
				t.Fatalf("request %d has no ground-truth account", i)
			}
		}
	}
}
