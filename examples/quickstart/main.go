// Quickstart: train an embedder on a synthetic multi-tenant workload, stand
// up a Querc service with a user-labeling classifier, and stream queries
// through it — the 60-second tour of the (embedder, labeler) architecture.
package main

import (
	"fmt"
	"log"

	"querc"
	"querc/internal/snowgen"
)

func main() {
	log.SetFlags(0)

	// 1. A workload to learn from: two tenants, a handful of users each.
	workload := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "acme", Users: 3, Queries: 400, Dialect: snowgen.DialectSnow},
			{Name: "globex", Users: 3, Queries: 400, Dialect: snowgen.DialectTSQL},
		},
		Seed: 1,
	})
	sqls := make([]string, len(workload))
	users := make([]string, len(workload))
	for i, q := range workload {
		sqls[i] = q.SQL
		users[i] = q.User
	}

	// 2. Representation: train a Doc2Vec embedder on raw query text. No
	// parser, no feature engineering — this is the paper's core move.
	cfg := querc.DefaultDoc2VecConfig()
	cfg.Dim = 32
	cfg.Epochs = 6
	embedder, err := querc.TrainDoc2Vec("quickstart", sqls, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained embedder %s (dim %d)\n", embedder.Name(), embedder.Dim())

	// 3. Labeling: fit a small randomized-tree labeler that predicts the
	// submitting user from the query vector.
	clf, err := querc.Fit("user", embedder, querc.NewForestLabeler(querc.DefaultForestConfig()), sqls, users, 4, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Deploy the (embedder, labeler) pair behind a Qworker and stream a
	// few fresh queries through the service.
	svc := querc.NewService()
	svc.AddApplication("acme-stream", 64, nil)
	if err := svc.Deploy("acme-stream", clf); err != nil {
		log.Fatal(err)
	}

	fresh := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "acme", Users: 3, Queries: 5, Dialect: snowgen.DialectSnow},
		},
		Seed: 1, // same seed ⇒ same schema/users as training
	})
	correct := 0
	for _, q := range fresh {
		labeled, err := svc.Submit("acme-stream", q.SQL)
		if err != nil {
			log.Fatal(err)
		}
		match := ""
		if labeled.Label("user") == q.User {
			correct++
			match = " ✓"
		}
		fmt.Printf("predicted %-16s actual %-16s%s\n", labeled.Label("user"), q.User, match)
	}
	fmt.Printf("%d/%d correct\n", correct, len(fresh))
}
