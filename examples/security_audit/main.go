// Security audit example (§4, §5.2): predict the submitting user from query
// syntax alone and flag queries whose session user disagrees with the
// prediction — the signature of a compromised account.
package main

import (
	"fmt"
	"log"

	"querc"
	"querc/internal/apps"
	"querc/internal/snowgen"
)

func main() {
	log.SetFlags(0)

	// Historical workload for one tenant with five analysts.
	history := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "tenant", Users: 5, Queries: 1200, Dialect: snowgen.DialectSnow},
		},
		Seed: 3,
	})
	sqls := make([]string, len(history))
	users := make([]string, len(history))
	for i, q := range history {
		sqls[i] = q.SQL
		users[i] = q.User
	}

	cfg := querc.DefaultDoc2VecConfig()
	cfg.Dim = 48
	cfg.Epochs = 8
	embedder, err := querc.TrainDoc2Vec("tenant", sqls, cfg)
	if err != nil {
		log.Fatal(err)
	}

	auditor := apps.NewSecurityAuditor(embedder, querc.DefaultForestConfig())
	auditor.MinConfidence = 0.10
	if err := auditor.Train(sqls, users); err != nil {
		log.Fatal(err)
	}

	// A clean session: the same user keeps issuing their usual queries.
	cleanFindings, err := auditor.Audit(sqls[:60], users[:60])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean session: %d of 60 queries flagged\n", len(cleanFindings))

	// A hijacked session: user1's credentials start issuing queries drawn
	// from a different tenant's workload (the attacker's habits differ).
	attacker := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "attacker", Users: 1, Queries: 60, Dialect: snowgen.DialectAnsi},
		},
		Seed: 99,
	})
	hijackSQL := make([]string, len(attacker))
	claimed := make([]string, len(attacker))
	for i, q := range attacker {
		hijackSQL[i] = q.SQL
		claimed[i] = users[0] // the stolen identity
	}
	findings, err := auditor.Audit(hijackSQL, claimed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hijacked session: %d of %d queries flagged\n", len(findings), len(attacker))
	for i, f := range findings {
		if i == 3 {
			fmt.Printf("  ... and %d more\n", len(findings)-3)
			break
		}
		fmt.Printf("  flagged: claimed %s, model predicts %s (conf %.2f)\n",
			f.ActualUser, f.Predicted, f.Confidence)
	}
}
