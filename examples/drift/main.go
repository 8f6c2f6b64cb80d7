// Drift plane example: deploy a classifier, let the tenant's workload shift
// under it (a warehouse migration — same users, brand-new schema and
// templates), and watch the drift control loop notice, retrain against the
// fresh training shards, and hot-swap a better model in through the eval
// gate — while a stationary workload never trips it.
package main

import (
	"fmt"
	"log"
	"time"

	"querc"
	"querc/internal/snowgen"
)

// phase generates one workload regime: the same account and user population
// for every seed, but a seed-specific schema and template set.
func phase(seed int64, n int) (sqls, users []string) {
	qs := snowgen.Generate(snowgen.Options{
		Accounts: []snowgen.AccountSpec{
			{Name: "acme", Users: 6, Queries: n, SharedFraction: 0.3, Dialect: snowgen.DialectSnow},
		},
		Seed: seed,
	})
	for _, q := range qs {
		sqls = append(sqls, q.SQL)
		users = append(users, q.User)
	}
	return sqls, users
}

func main() {
	log.SetFlags(0)

	// 1. Two workload regimes. The embedder — the shared, centrally trained
	// half of a classifier — is trained on a corpus covering both; the
	// labeler, the cheap per-tenant half the drift plane retrains, will
	// only ever see regime A at deploy time.
	oldSQLs, oldUsers := phase(1, 1200)
	newSQLs, newUsers := phase(2, 1200)
	cfg := querc.DefaultDoc2VecConfig()
	cfg.Dim = 32
	cfg.Epochs = 6
	embedder, err := querc.TrainDoc2Vec("drift-example", append(append([]string{}, oldSQLs...), newSQLs...), cfg)
	if err != nil {
		log.Fatal(err)
	}
	clf, err := querc.Fit("user", embedder, querc.NewForestLabeler(querc.DefaultForestConfig()), oldSQLs, oldUsers, 4, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Stand up the service and enable the drift plane. Ticks are driven
	// manually here so the walkthrough is deterministic; a daemon would
	// call ctl.Start() (quercd: -drift-interval 30s).
	svc := querc.NewService()
	svc.AddApplication("acme", 256, nil)
	svc.Training().SetRetention("acme", 600)
	if err := svc.Deploy("acme", clf); err != nil {
		log.Fatal(err)
	}
	ctl := svc.EnableDriftControl(querc.ControllerConfig{
		Threshold:   0.15,
		Cooldown:    time.Nanosecond, // ticks are manual; the gate does the damping
		MinGain:     0.05,
		HoldoutFrac: 0.3,
		Detector:    querc.DriftDetectorConfig{MinQueries: 100},
		NewLabeler: func(string, string) querc.TrainableLabeler {
			return querc.NewForestLabeler(querc.DefaultForestConfig())
		},
	})

	// replay pushes one batch through the worker, imports the ground-truth
	// labels (delayed true labels, as from the database's own query log),
	// ticks the control loop, and reports accuracy plus drift state.
	replay := func(tag string, sqls, users []string) {
		out, err := svc.SubmitBatch("acme", sqls, 4)
		if err != nil {
			log.Fatal(err)
		}
		correct := 0
		truth := make([]*querc.LabeledQuery, len(out))
		for i, q := range out {
			if q.Label("user") == users[i] {
				correct++
			}
			truth[i] = &querc.LabeledQuery{SQL: sqls[i], Labels: map[string]string{"user": users[i]}}
		}
		svc.Training().IngestBatch("acme", truth)
		ctl.Tick()
		fmt.Printf("%-12s accuracy %5.1f%%", tag, 100*float64(correct)/float64(len(out)))
		if keys := ctl.Status()[0].Keys; len(keys) == 0 {
			fmt.Printf("  (baseline interval)")
		} else {
			k := keys[0]
			fmt.Printf("  drift %.3f (centroid %.3f, labels %.3f, cache %.3f)",
				k.Score.Total, k.Score.CentroidShift, k.Score.LabelDivergence, k.Score.CacheCollapse)
			if k.LastGate != "" {
				fmt.Printf("  gate=%s (%.2f -> %.2f)", k.LastGate, k.OldAcc, k.NewAcc)
			}
		}
		fmt.Println()
	}

	fmt.Println("--- regime A: stationary (baseline, then no trigger) ---")
	for i := 0; i < 3; i++ {
		lo := i * 400
		replay(fmt.Sprintf("A batch %d", i), oldSQLs[lo:lo+400], oldUsers[lo:lo+400])
	}

	fmt.Println("--- regime B: the tenant migrated; the loop closes ---")
	for i := 0; i < 3; i++ {
		lo := i * 400
		replay(fmt.Sprintf("B batch %d", i), newSQLs[lo:lo+400], newUsers[lo:lo+400])
	}

	retrains, promotions, rejections := ctl.Counters("acme")
	fmt.Printf("\ncontrol loop: %d retrains, %d promoted, %d rejected by the eval gate\n",
		retrains, promotions, rejections)
	if promotions == 0 {
		log.Fatal("expected the drift loop to promote a retrained classifier")
	}
}
