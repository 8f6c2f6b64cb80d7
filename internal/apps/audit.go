package apps

import (
	"querc/internal/core"
	"querc/internal/ml/forest"
)

// AuditFinding is one flagged query from a security audit pass.
type AuditFinding struct {
	Index      int // position in the audited stream
	SQL        string
	ActualUser string
	Predicted  string
	Confidence float64
}

// SecurityAuditor implements §4's security-audit application: a labeler
// predicts the submitting user from query syntax alone; a mismatch against
// the session's actual user (or a low-confidence match) flags the query for
// audit — the signature of a possibly compromised account. Its classifier
// writes the "user" label.
type SecurityAuditor struct {
	labelTask
	// MinConfidence below which even a matching prediction is flagged.
	MinConfidence float64
}

// NewSecurityAuditor builds an auditor with a fresh forest labeler.
func NewSecurityAuditor(embedder core.Embedder, cfg forest.Config) *SecurityAuditor {
	return &SecurityAuditor{labelTask: newLabelTask("user", embedder, cfg), MinConfidence: 0.15}
}

// Train fits the user model from historical (sql, user) pairs.
func (a *SecurityAuditor) Train(sqls, users []string) error {
	return a.fit(sqls, users)
}

// Audit scores a stream of (sql, actual user) pairs and returns findings for
// mismatches and low-confidence matches.
func (a *SecurityAuditor) Audit(sqls, users []string) ([]AuditFinding, error) {
	preds, confs, err := a.predictStream(sqls, users)
	if err != nil {
		return nil, err
	}
	var findings []AuditFinding
	for i, pred := range preds {
		if pred != users[i] || confs[i] < a.MinConfidence {
			findings = append(findings, AuditFinding{
				Index: i, SQL: sqls[i],
				ActualUser: users[i], Predicted: pred, Confidence: confs[i],
			})
		}
	}
	return findings, nil
}
