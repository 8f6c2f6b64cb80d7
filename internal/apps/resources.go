package apps

import (
	"fmt"
	"sort"

	"querc/internal/core"
	"querc/internal/ml/forest"
)

// ResourceClass is a coarse runtime/memory bucket used for speculative
// resource allocation (§4: "coarsely categorize queries as memory-intensive,
// long-running, etc.").
type ResourceClass string

// Resource classes, ordered by weight.
const (
	ClassLight  ResourceClass = "light"
	ClassMedium ResourceClass = "medium"
	ClassHeavy  ResourceClass = "heavy"
)

// ResourceAllocator implements §4's resource-allocation application: it
// buckets historical runtimes into tertiles and learns to predict the bucket
// from query syntax, giving the scheduler a database-agnostic admission
// hint. Its classifier writes the "resource" label.
type ResourceAllocator struct {
	labelTask

	// Cut points (runtime ms) learned from the training distribution.
	LightMax, MediumMax float64
}

// NewResourceAllocator builds an allocator with a fresh forest labeler.
func NewResourceAllocator(embedder core.Embedder, cfg forest.Config) *ResourceAllocator {
	return &ResourceAllocator{labelTask: newLabelTask("resource", embedder, cfg)}
}

// Train fits the class model from (sql, runtimeMS) history. Buckets are the
// empirical tertiles of the training runtimes — classes stay balanced by
// construction, so accuracy is interpretable against a 1/3 floor.
func (r *ResourceAllocator) Train(sqls []string, runtimesMS []float64) error {
	if len(sqls) != len(runtimesMS) || len(sqls) == 0 {
		return fmt.Errorf("apps: resource training set mismatch (%d, %d)", len(sqls), len(runtimesMS))
	}
	sorted := append([]float64(nil), runtimesMS...)
	sort.Float64s(sorted)
	// Tertile boundaries are the last value of each lower bucket, so exact
	// boundary runtimes classify into the lower class (stable under ties).
	i1 := len(sorted)/3 - 1
	if i1 < 0 {
		i1 = 0
	}
	i2 := 2*len(sorted)/3 - 1
	if i2 < i1 {
		i2 = i1
	}
	r.LightMax = sorted[i1]
	r.MediumMax = sorted[i2]

	y := make([]string, len(sqls))
	for i, rt := range runtimesMS {
		y[i] = string(r.classify(rt))
	}
	return r.fit(sqls, y)
}

func (r *ResourceAllocator) classify(runtimeMS float64) ResourceClass {
	switch {
	case runtimeMS <= r.LightMax:
		return ClassLight
	case runtimeMS <= r.MediumMax:
		return ClassMedium
	default:
		return ClassHeavy
	}
}

// TrueClass buckets an observed runtime with the learned cut points (for
// evaluating predictions).
func (r *ResourceAllocator) TrueClass(runtimeMS float64) ResourceClass {
	return r.classify(runtimeMS)
}

// Predict returns the expected resource class for sql.
func (r *ResourceAllocator) Predict(sql string) (ResourceClass, float64) {
	label, conf := r.predict(sql)
	return ResourceClass(label), conf
}
