// Error prediction example (§4): learn which syntax patterns precede
// resource errors and divert risky queries to an instrumented runtime before
// execution.
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

	// A busy tenant whose heavy multi-join queries occasionally OOM. The
	// generator attaches error labels exactly the way a production log would.
	history := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "tenant", Users: 6, Queries: 4000, Dialect: snowgen.DialectSnow},
		},
		Seed: 8,
	})
	sqls := make([]string, len(history))
	codes := make([]string, len(history))
	errCount := 0
	for i, q := range history {
		sqls[i] = q.SQL
		codes[i] = q.ErrorCode
		if q.ErrorCode != "" {
			errCount++
		}
	}
	fmt.Printf("history: %d queries, %d with error labels\n", len(history), errCount)

	cfg := querc.DefaultDoc2VecConfig()
	cfg.Dim = 48
	cfg.Epochs = 6
	embedder, err := querc.TrainDoc2Vec("tenant", sqls, cfg)
	if err != nil {
		log.Fatal(err)
	}
	predictor := apps.NewErrorPredictor(embedder, querc.DefaultForestConfig())
	if err := predictor.Train(sqls, codes); err != nil {
		log.Fatal(err)
	}

	// Route a fresh day of traffic: risky queries go to the canary cluster.
	fresh := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "tenant", Users: 6, Queries: 300, Dialect: snowgen.DialectSnow},
		},
		Seed: 8,
	})
	diverted, failuresCaught, failures := 0, 0, 0
	for _, q := range fresh {
		risky, code := predictor.Risky(q.SQL, 0.3)
		if q.ErrorCode != "" {
			failures++
		}
		if risky {
			diverted++
			if q.ErrorCode != "" {
				failuresCaught++
			}
			_ = code
		}
	}
	fmt.Printf("fresh traffic: %d queries, %d would fail\n", len(fresh), failures)
	fmt.Printf("diverted %d to the instrumented runtime; %d of the failures were among them\n",
		diverted, failuresCaught)
}
