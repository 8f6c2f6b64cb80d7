package core

import (
	"sync"

	"querc/internal/drift"
	"querc/internal/vec"
)

// driftAccum accumulates the workload statistics behind the drift plane on
// the Qworker hot path: per-embedder vector sums (for interval centroids),
// per-label-key predicted-value counts, and embedding-plane hit/miss
// counters. It is drained (and reset) by Qworker.TakeDriftSample each
// controller tick, so a sample covers exactly the queries processed since
// the previous tick — the same stream that feeds the worker's ring-buffer
// window, without retaining per-query vectors.
//
// The annotate path merges once per chunk of distinct texts (a Process call
// is a chunk of one), weighting each text by its multiplicity in the batch,
// so the counts and sums equal per-occurrence accounting.
type driftAccum struct {
	mu      sync.Mutex
	embSum  map[string]vec.Vector // embedder name -> sum of observed vectors
	embSq   map[string]float64    // embedder name -> sum of squared norms
	embN    map[string]int        // embedder name -> observation count
	labels  map[string]map[string]int
	hits    int64
	misses  int64
	queries int
}

func newDriftAccum() *driftAccum {
	return &driftAccum{
		embSum: make(map[string]vec.Vector),
		embSq:  make(map[string]float64),
		embN:   make(map[string]int),
		labels: make(map[string]map[string]int),
	}
}

// merge folds one annotated chunk of distinct queries into the accumulator.
// mult[i] counts chunk[i]'s occurrences in its batch; vecs[gi][i] is
// chunk[i]'s vector for plan[gi] (read-only here); hits and misses count the
// chunk's embedding-plane lookups across all groups, repeats as hits.
func (a *driftAccum) merge(plan []embedderGroup, chunk []*LabeledQuery, mult []int32, vecs [][]vec.Vector, hits, misses int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, m := range mult {
		n += int(m)
	}
	a.queries += n
	a.hits += hits
	a.misses += misses
	for gi := range plan {
		g := &plan[gi]
		sum := a.embSum[g.name]
		if sum == nil {
			sum = vec.New(len(vecs[gi][0]))
			a.embSum[g.name] = sum
		}
		var sq float64
		for i, v := range vecs[gi][:len(chunk)] {
			sum.AddScaled(float64(mult[i]), v)
			sq += float64(mult[i]) * vec.Dot(v, v)
		}
		a.embSq[g.name] += sq
		a.embN[g.name] += n
		for _, c := range g.clfs {
			m := a.labels[c.LabelKey]
			if m == nil {
				//querc:allow-alloc one lazy map per classifier label key, amortized over the interval
				m = make(map[string]int)
				a.labels[c.LabelKey] = m
			}
			for i, q := range chunk {
				m[q.Labels[c.LabelKey]] += int(mult[i])
			}
		}
	}
}

// take drains the accumulated interval into a drift.Sample and resets the
// accumulator. plan supplies the label-key -> embedder mapping of the
// currently deployed classifiers. Returns nil for an empty interval.
func (a *driftAccum) take(app string, plan []embedderGroup) *drift.Sample {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.queries == 0 {
		return nil
	}
	s := &drift.Sample{
		App:         app,
		Queries:     a.queries,
		Embedders:   make(map[string]drift.EmbedderStats, len(a.embSum)),
		Labels:      a.labels,
		KeyEmbedder: make(map[string]string),
		CacheHits:   a.hits,
		CacheMisses: a.misses,
	}
	for name, sum := range a.embSum {
		n := a.embN[name]
		sum.Scale(1 / float64(n)) // ownership transfers to the sample
		s.Embedders[name] = drift.EmbedderStats{
			Centroid: sum,
			SqNorm:   a.embSq[name] / float64(n),
			Count:    n,
		}
	}
	for gi := range plan {
		for _, c := range plan[gi].clfs {
			s.KeyEmbedder[c.LabelKey] = plan[gi].name
		}
	}
	a.embSum = make(map[string]vec.Vector)
	a.embSq = make(map[string]float64)
	a.embN = make(map[string]int)
	a.labels = make(map[string]map[string]int)
	a.hits, a.misses, a.queries = 0, 0, 0
	return s
}
