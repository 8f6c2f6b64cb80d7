package apps

import (
	"fmt"
	"sort"
	"strconv"

	"querc/internal/core"
	"querc/internal/ml/forest"
)

// defaultMemoryBuckets is the quantile-bucket count when
// MemoryEstimator.Buckets is unset. Eight buckets keep the regression
// coarse enough for the forest to learn from syntax alone while resolving
// the light/heavy spread the admission gate cares about.
const defaultMemoryBuckets = 8

// MemoryEstimator implements the LearnedWMP-style memory label task: it
// buckets historical working-set sizes into quantiles and learns to predict
// the bucket from query syntax, so every admitted query carries a
// working-set estimate the dispatcher can budget against. It is a bucketed
// regressor over the shared embedding — the forest classifies into a
// quantile bucket whose label is its representative size in megabytes, and
// Predict parses that label back into a number. Its classifier writes the
// "memMB" label, the key sched.Config.MemKey reads by default, so deploying
// it is all the plumbing memory-aware admission needs.
type MemoryEstimator struct {
	labelTask
	// Buckets is the quantile-bucket count (default 8). Buckets whose value
	// range collapses under ties merge, so the effective count can be lower
	// on narrow distributions.
	Buckets int

	// cuts[i] is bucket i's inclusive upper bound in MB; reps[i] its
	// representative (median) size — the value the bucket's label encodes.
	// The last bucket catches everything above the last cut.
	cuts []float64
	reps []float64
}

// NewMemoryEstimator builds an estimator with a fresh forest labeler.
func NewMemoryEstimator(embedder core.Embedder, cfg forest.Config) *MemoryEstimator {
	return &MemoryEstimator{labelTask: newLabelTask("memMB", embedder, cfg)}
}

// Train fits the bucket model from (sql, memoryMB) history: quantile cut
// points over the training sizes (so buckets stay balanced by
// construction), a median representative per bucket, then the forest over
// the embeddings with the formatted representatives as class labels.
func (m *MemoryEstimator) Train(sqls []string, memMB []float64) error {
	if len(sqls) != len(memMB) || len(sqls) == 0 {
		return fmt.Errorf("apps: memory training set mismatch (%d, %d)", len(sqls), len(memMB))
	}
	n := m.Buckets
	if n <= 0 {
		n = defaultMemoryBuckets
	}
	sorted := append([]float64(nil), memMB...)
	sort.Float64s(sorted)
	m.cuts = m.cuts[:0]
	m.reps = m.reps[:0]
	for b := 0; b < n; b++ {
		hi := (b + 1) * len(sorted) / n
		if hi == 0 {
			continue // fewer samples than buckets
		}
		upper := sorted[hi-1]
		if len(m.cuts) > 0 && upper <= m.cuts[len(m.cuts)-1] {
			continue // tie with the previous bucket: merge
		}
		m.cuts = append(m.cuts, upper)
	}
	// Representatives come from each bucket's actual value range — a
	// quantile boundary can land mid-run of a repeated value, so the
	// bucket's index midpoint could name a value from below its range.
	start := 0
	for _, cut := range m.cuts {
		end := start
		for end < len(sorted) && sorted[end] <= cut {
			end++
		}
		m.reps = append(m.reps, sorted[start+(end-start)/2])
		start = end
	}
	y := make([]string, len(sqls))
	for i, mb := range memMB {
		y[i] = formatMB(m.bucketRep(mb))
	}
	return m.fit(sqls, y)
}

// bucketRep returns the representative MB of the bucket containing mb.
func (m *MemoryEstimator) bucketRep(mb float64) float64 {
	for i, cut := range m.cuts {
		if mb <= cut {
			return m.reps[i]
		}
	}
	return m.reps[len(m.reps)-1]
}

// TrueMB buckets an observed working set with the learned cut points (for
// evaluating predictions against ground truth at bucket granularity).
func (m *MemoryEstimator) TrueMB(memMB float64) float64 {
	if len(m.reps) == 0 {
		return 0
	}
	return m.bucketRep(memMB)
}

// Predict returns the estimated working set in MB for sql and the forest's
// confidence in the bucket.
func (m *MemoryEstimator) Predict(sql string) (float64, float64) {
	label, conf := m.predict(sql)
	return parseMB(label), conf
}

// formatMB renders a bucket representative as its class label. The label is
// the wire format (query labels are strings), so it round-trips through
// parseMB and the dispatcher's label parser.
func formatMB(mb float64) string { return strconv.FormatFloat(mb, 'f', -1, 64) }

// parseMB inverts formatMB, returning 0 on malformed labels.
func parseMB(label string) float64 {
	mb, err := strconv.ParseFloat(label, 64)
	if err != nil || mb < 0 {
		return 0
	}
	return mb
}
