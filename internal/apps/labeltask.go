package apps

import (
	"fmt"

	"querc/internal/core"
	"querc/internal/ml/forest"
)

// labelTask is the part every §4 labeling application shares: an embedder,
// a forest labeler, and the label key their deployed classifier writes. It
// trains through core.Fit and predicts one query or a stream; each
// application adds only what its labels mean (runtime tertiles, memory
// buckets, OK for success, and the rules that turn predictions into
// findings).
type labelTask struct {
	Embedder core.Embedder
	Labeler  *core.ForestLabeler
	Workers  int // embedding parallelism; <= 0 uses GOMAXPROCS

	key string
}

// newLabelTask returns a task writing under key with a fresh forest labeler.
func newLabelTask(key string, embedder core.Embedder, cfg forest.Config) labelTask {
	return labelTask{Embedder: embedder, Labeler: core.NewForestLabeler(cfg), key: key}
}

// fit trains the labeler on index-aligned (sql, label) history.
func (t *labelTask) fit(sqls, y []string) error {
	_, err := core.Fit(t.key, t.Embedder, t.Labeler, sqls, y, t.Workers, nil)
	return err
}

// predict returns the label for sql and the forest's vote fraction.
func (t *labelTask) predict(sql string) (string, float64) {
	return t.Labeler.Confidence(t.Embedder.Embed(sql))
}

// predictStream labels a stream of queries that arrived with labels of their
// own (an assigned cluster, a session user) in one batch embed, returning
// index-aligned predictions and vote fractions.
func (t *labelTask) predictStream(sqls, given []string) ([]string, []float64, error) {
	if len(sqls) != len(given) {
		return nil, nil, fmt.Errorf("apps: %s stream mismatch (%d, %d)", t.key, len(sqls), len(given))
	}
	preds := make([]string, len(sqls))
	confs := make([]float64, len(sqls))
	for i, v := range core.EmbedAll(t.Embedder, sqls, t.Workers) {
		preds[i], confs[i] = t.Labeler.Confidence(v)
	}
	return preds, confs, nil
}

// Classifier exposes the trained (embedder, labeler) pair as a deployable
// classifier under the application's label key: "cluster" (RoutingChecker),
// "user" (SecurityAuditor), "error" (ErrorPredictor), "resource"
// (ResourceAllocator) or "memMB" (MemoryEstimator).
func (t *labelTask) Classifier() *core.Classifier {
	return &core.Classifier{LabelKey: t.key, Embedder: t.Embedder, Labeler: t.Labeler}
}
