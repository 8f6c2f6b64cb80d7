// Routing policy example (§4): learn cluster assignments from query text and
// surface assignments that contradict the learned policy — candidate
// misconfigurations in a manually maintained routing table.
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

	// Three tenants, each pinned to its own cluster by policy.
	qs := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "red", Users: 3, Queries: 500, Dialect: snowgen.DialectSnow},
			{Name: "green", Users: 3, Queries: 500, Dialect: snowgen.DialectAnsi},
			{Name: "blue", Users: 3, Queries: 500, Dialect: snowgen.DialectTSQL},
		},
		Seed: 5,
	})
	sqls := make([]string, len(qs))
	clusters := make([]string, len(qs))
	for i, q := range qs {
		sqls[i] = q.SQL
		clusters[i] = q.Cluster
	}

	cfg := querc.DefaultDoc2VecConfig()
	cfg.Dim = 48
	cfg.Epochs = 8
	embedder, err := querc.TrainDoc2Vec("routing", sqls, cfg)
	if err != nil {
		log.Fatal(err)
	}
	checker := apps.NewRoutingChecker(embedder, querc.DefaultForestConfig())
	checker.MinConfidence = 0.5
	if err := checker.Train(sqls, clusters); err != nil {
		log.Fatal(err)
	}

	// Simulate a policy regression: a block of queries gets routed to the
	// wrong cluster after a config change.
	assigned := append([]string(nil), clusters[:300]...)
	broken := 0
	for i := 0; i < 300; i += 15 {
		assigned[i] = "cluster_99"
		broken++
	}
	findings, err := checker.Check(sqls[:300], assigned)
	if err != nil {
		log.Fatal(err)
	}
	caught := 0
	for _, f := range findings {
		if f.Assigned == "cluster_99" {
			caught++
		}
	}
	fmt.Printf("injected %d misroutes into 300 queries; checker flagged %d findings, %d of them real\n",
		broken, len(findings), caught)
	for i, f := range findings {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  assigned %-12s but policy model says %-12s (conf %.2f)\n",
			f.Assigned, f.Predicted, f.Confidence)
	}

	// Speculative routing for a brand-new query.
	cluster, conf := checker.Route(sqls[42])
	fmt.Printf("speculative route for a fresh query: %s (confidence %.2f)\n", cluster, conf)
}
