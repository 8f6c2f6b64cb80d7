package apps

import (
	"querc/internal/core"
	"querc/internal/ml/forest"
)

// OKLabel is the error label of successful queries.
const OKLabel = "OK"

// ErrorPredictor implements §4's error-prediction application: syntax
// patterns correlate with resource errors and engine bugs, so a labeler
// trained on historical error codes can route risky queries to an
// instrumented or more stable runtime before execution. Its classifier
// writes the "error" label.
type ErrorPredictor struct {
	labelTask
}

// NewErrorPredictor builds a predictor with a fresh forest labeler.
func NewErrorPredictor(embedder core.Embedder, cfg forest.Config) *ErrorPredictor {
	return &ErrorPredictor{labelTask: newLabelTask("error", embedder, cfg)}
}

// Train fits the error model from (sql, errorCode) history, where "" means
// success (normalized to OKLabel).
func (p *ErrorPredictor) Train(sqls, errorCodes []string) error {
	y := make([]string, len(errorCodes))
	for i, c := range errorCodes {
		if c == "" {
			y[i] = OKLabel
		} else {
			y[i] = c
		}
	}
	return p.fit(sqls, y)
}

// Predict returns the expected error code for sql (OKLabel when none).
func (p *ErrorPredictor) Predict(sql string) (string, float64) {
	return p.predict(sql)
}

// Risky reports whether the query should be diverted to the instrumented
// runtime: any non-OK prediction at or above minConfidence.
func (p *ErrorPredictor) Risky(sql string, minConfidence float64) (bool, string) {
	pred, conf := p.Predict(sql)
	return pred != OKLabel && conf >= minConfidence, pred
}
