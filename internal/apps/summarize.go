// Package apps implements the six workload-management applications of paper
// §4 as thin, composable layers over the Querc core: workload summarization
// for index recommendation, security auditing, query-routing policy checks,
// error prediction, resource allocation, and query recommendation.
//
// Every application reduces to query labeling (the paper's central claim).
// The five labeling applications — security audit, routing checks, error
// prediction, resource allocation, and memory estimation — share one
// embedder-plus-forest part that trains through core.Fit, the same routine
// the training module retrains with, and each interprets its labels in its
// own domain. Summarization and recommendation cluster the embeddings
// instead.
package apps

import (
	"fmt"
	"math/rand"

	"querc/internal/core"
	"querc/internal/featurize"
	"querc/internal/ml/cluster"
	"querc/internal/vec"
)

// SummaryResult is the outcome of workload summarization (§5.1): the indices
// of the representative queries and the weight (cluster size) each carries.
type SummaryResult struct {
	Indices []int
	Weights []int
	K       int
	SSE     []float64 // elbow curve (per-K SSE), for diagnostics
}

// Summarizer reduces a workload to representative queries by clustering
// learned query vectors with k-means and picking each cluster's nearest-to-
// centroid witness — the paper's replacement for custom-distance K-medoids.
type Summarizer struct {
	Embedder core.Embedder
	MaxK     int     // elbow search upper bound (default 40)
	Frac     float64 // elbow threshold (default 0.1)
	Workers  int     // embedding parallelism
	Seed     int64
}

// Summarize clusters the workload and returns representatives with weights.
func (s *Summarizer) Summarize(sqls []string) (*SummaryResult, error) {
	if len(sqls) == 0 {
		return nil, fmt.Errorf("apps: empty workload")
	}
	maxK := s.MaxK
	if maxK <= 0 {
		maxK = 40
	}
	frac := s.Frac
	if frac <= 0 {
		frac = 0.1
	}
	points := core.EmbedAll(s.Embedder, sqls, s.Workers)
	normalize(points)
	rng := rand.New(rand.NewSource(s.Seed))
	k, sses := cluster.ElbowK(rng, points, maxK, frac)
	res := cluster.KMeans(rng, points, k, 100)
	reps := res.Representatives(points)

	sizes := make([]int, len(res.Centroids))
	for _, c := range res.Assignment {
		sizes[c]++
	}
	out := &SummaryResult{K: k, SSE: sses}
	for _, idx := range reps {
		out.Indices = append(out.Indices, idx)
		out.Weights = append(out.Weights, sizes[res.Assignment[idx]])
	}
	return out, nil
}

// BaselineSummarizer is the classical comparator: Chaudhuri-style syntactic
// features under the custom workload distance, clustered with K-medoids.
type BaselineSummarizer struct {
	K    int // number of medoids; <=0 derives it as with the elbow default
	Seed int64
}

// Summarize picks K medoid queries under the custom distance.
func (b *BaselineSummarizer) Summarize(sqls []string) (*SummaryResult, error) {
	if len(sqls) == 0 {
		return nil, fmt.Errorf("apps: empty workload")
	}
	feats := make([]*featurize.Features, len(sqls))
	for i, sql := range sqls {
		feats[i] = featurize.Extract(sql)
	}
	k := b.K
	if k <= 0 {
		k = 22
		if k > len(sqls) {
			k = len(sqls)
		}
	}
	rng := rand.New(rand.NewSource(b.Seed))
	// Memoize the pairwise distance; PAM probes it heavily.
	memo := make(map[[2]int]float64)
	dist := func(i, j int) float64 {
		if i == j {
			return 0
		}
		key := [2]int{i, j}
		if i > j {
			key = [2]int{j, i}
		}
		if d, ok := memo[key]; ok {
			return d
		}
		d := featurize.Distance(feats[i], feats[j])
		memo[key] = d
		return d
	}
	res := cluster.KMedoids(rng, len(sqls), k, 20, dist)
	sizes := make([]int, len(res.Medoids))
	for _, c := range res.Assignment {
		sizes[c]++
	}
	out := &SummaryResult{K: len(res.Medoids)}
	for mi, m := range res.Medoids {
		out.Indices = append(out.Indices, m)
		out.Weights = append(out.Weights, sizes[mi])
	}
	return out, nil
}

// normalize scales points to unit length in place. core.EmbedAll hands
// repeated texts one shared vector, so each distinct vector is scaled once.
func normalize(points []vec.Vector) {
	done := make(map[*float64]bool, len(points))
	for _, p := range points {
		if len(p) > 0 && !done[&p[0]] {
			done[&p[0]] = true
			p.Normalize()
		}
	}
}
