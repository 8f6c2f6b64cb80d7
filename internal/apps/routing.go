package apps

import (
	"querc/internal/core"
	"querc/internal/ml/forest"
)

// RoutingFinding is one suspected routing-policy misconfiguration: a query
// whose assigned cluster differs from the cluster the model predicts for
// queries that look like it.
type RoutingFinding struct {
	Index      int
	SQL        string
	Assigned   string
	Predicted  string
	Confidence float64
}

// RoutingChecker implements §4's query-routing application. Under the
// hypothesis that "queries that follow a particular policy tend to have
// similar features", it learns assigned-cluster labels from query vectors
// and flags assignments that disagree with confident predictions. Its
// classifier writes the "cluster" label.
type RoutingChecker struct {
	labelTask
	// MinConfidence a disagreement must reach before it is reported.
	MinConfidence float64
}

// NewRoutingChecker builds a checker with a fresh forest labeler.
func NewRoutingChecker(embedder core.Embedder, cfg forest.Config) *RoutingChecker {
	return &RoutingChecker{labelTask: newLabelTask("cluster", embedder, cfg), MinConfidence: 0.6}
}

// Train fits the cluster model from historical (sql, cluster) assignments.
func (r *RoutingChecker) Train(sqls, clusters []string) error {
	return r.fit(sqls, clusters)
}

// Check flags queries whose assigned cluster contradicts a confident model
// prediction — candidate policy misconfigurations.
func (r *RoutingChecker) Check(sqls, assigned []string) ([]RoutingFinding, error) {
	preds, confs, err := r.predictStream(sqls, assigned)
	if err != nil {
		return nil, err
	}
	var findings []RoutingFinding
	for i, pred := range preds {
		if pred != assigned[i] && confs[i] >= r.MinConfidence {
			findings = append(findings, RoutingFinding{
				Index: i, SQL: sqls[i],
				Assigned: assigned[i], Predicted: pred, Confidence: confs[i],
			})
		}
	}
	return findings, nil
}

// Route predicts the cluster for a new query (speculative routing).
func (r *RoutingChecker) Route(sql string) (string, float64) {
	return r.predict(sql)
}
