package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"querc"
	"querc/internal/experiments"
	"querc/internal/snowgen"
)

// driftStream is the replayed workload of the drift experiment: a labeled
// query stream whose tenant mix shifts at shiftAt.
type driftStream struct {
	sqls    []string
	users   []string
	shiftAt int // index of the first post-shift query
	batch   int // replay batch size (one controller tick per batch)
}

// runDrift replays a snowgen workload with a mid-stream tenant-mix shift —
// same application, same user population, but a brand-new schema and
// template set (a tenant migrating its warehouse) — through two identical
// services: one with the drift control loop off, one with it on. It reports
// user-prediction accuracy over time for both, and how much of the accuracy
// lost to the shift the loop recovers via its gated retrain/redeploys.
func runDrift(scale experiments.Scale, workers int, csvDir string) error {
	nPhase, batch := 4000, 250
	if scale == experiments.ScalePaper {
		nPhase, batch = 40000, 1000
	}
	spec := func(seed int64) []snowgen.Query {
		return snowgen.Generate(snowgen.Options{
			Accounts: []snowgen.AccountSpec{{
				Name: "app", Users: 12, Queries: nPhase,
				SharedFraction: 0.3, Dialect: snowgen.DialectSnow,
			}},
			Seed: seed,
		})
	}
	phaseA, phaseB := spec(101), spec(202)

	st := driftStream{batch: batch, shiftAt: len(phaseA)}
	for _, q := range phaseA {
		st.sqls = append(st.sqls, q.SQL)
		st.users = append(st.users, q.User)
	}
	for _, q := range phaseB {
		st.sqls = append(st.sqls, q.SQL)
		st.users = append(st.users, q.User)
	}

	// The embedder is the shared, centrally-trained half: train it on a
	// broad corpus covering both schema generations (in production it is
	// trained on a large multi-tenant workload, §3). The labeler — the
	// per-tenant half the drift plane retrains — sees ONLY phase A.
	subN := 1500
	if subN > nPhase {
		subN = nPhase
	}
	corpus := append(append([]string(nil), st.sqls[:subN]...), st.sqls[st.shiftAt:st.shiftAt+subN]...)
	// Dim/epochs matter here: an under-trained embedder collapses all SQL
	// onto one direction and the schema change never moves the centroid.
	cfg := querc.DefaultDoc2VecConfig()
	cfg.Dim = 32
	cfg.Epochs = 6
	emb, err := querc.TrainDoc2Vec("drift", corpus, cfg)
	if err != nil {
		return err
	}
	clf, err := querc.Fit("user", emb, querc.NewForestLabeler(querc.DefaultForestConfig()), st.sqls[:subN], st.users[:subN], workers, nil)
	if err != nil {
		return err
	}

	offAcc, _, err := replayDrift(st, clf, workers, nil)
	if err != nil {
		return err
	}
	loopCfg := &querc.ControllerConfig{
		Threshold:      0.15,
		Cooldown:       time.Nanosecond, // ticks are batch-driven; the gate provides the damping
		MinGain:        0.05,            // a challenger must clearly beat the incumbent
		MinTrainingSet: 300,
		HoldoutFrac:    0.3,
		Workers:        workers,
		Detector:       querc.DriftDetectorConfig{MinQueries: 100},
		NewLabeler: func(string, string) querc.TrainableLabeler {
			return querc.NewForestLabeler(querc.DefaultForestConfig())
		},
	}
	onAcc, ctl, err := replayDrift(st, clf, workers, loopCfg)
	if err != nil {
		return err
	}

	shiftBatch := st.shiftAt / batch
	fmt.Printf("%d queries (%d per phase), shift at query %d, batch=%d, 1 tick/batch\n\n",
		len(st.sqls), nPhase, st.shiftAt, batch)
	fmt.Printf("%-7s %-6s %10s %10s\n", "batch", "phase", "loop OFF", "loop ON")
	for i := range offAcc {
		phase := "A"
		if i >= shiftBatch {
			phase = "B"
		}
		fmt.Printf("%-7d %-6s %9.1f%% %9.1f%%\n", i, phase, 100*offAcc[i], 100*onAcc[i])
	}

	tail := 4
	pre := meanTail(offAcc[:shiftBatch], tail)
	postOff := meanTail(offAcc, tail)
	postOn := meanTail(onAcc, tail)
	lost := pre - postOff
	recovered := 0.0
	if lost > 0 {
		recovered = (postOn - postOff) / lost
	}
	retrains, promotions, rejections := ctl.Counters("app")
	fmt.Printf("\npre-shift accuracy:        %6.1f%%\n", 100*pre)
	fmt.Printf("post-shift, loop OFF:      %6.1f%%\n", 100*postOff)
	fmt.Printf("post-shift, loop ON:       %6.1f%%\n", 100*postOn)
	fmt.Printf("accuracy lost to shift:    %6.1f points\n", 100*lost)
	fmt.Printf("recovered by control loop: %6.1f%%  (target >= 80%%)\n", 100*recovered)
	fmt.Printf("retrains: %d (%d promoted, %d rejected by the eval gate)\n",
		retrains, promotions, rejections)

	if csvDir != "" {
		f, err := os.Create(filepath.Join(csvDir, "drift.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		w := csv.NewWriter(f)
		if err := w.Write([]string{"batch", "phase", "acc_loop_off", "acc_loop_on"}); err != nil {
			return err
		}
		for i := range offAcc {
			phase := "A"
			if i >= shiftBatch {
				phase = "B"
			}
			if err := w.Write([]string{
				strconv.Itoa(i), phase,
				strconv.FormatFloat(offAcc[i], 'f', 4, 64),
				strconv.FormatFloat(onAcc[i], 'f', 4, 64),
			}); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	}
	if recovered < 0.8 {
		return fmt.Errorf("drift loop recovered only %.1f%% of lost accuracy (target >= 80%%)", 100*recovered)
	}
	return nil
}

// replayDrift pushes the stream through one service batch by batch,
// ingesting ground-truth labels through the log-import path after each batch
// (true labels arrive late, from the database's own logs) and ticking the
// drift controller once per batch when loopCfg is non-nil. It returns
// per-batch user-prediction accuracy.
func replayDrift(st driftStream, clf *querc.Classifier, workers int, loopCfg *querc.ControllerConfig) ([]float64, *querc.Controller, error) {
	svc := querc.NewService()
	svc.AddApplication("app", 512, nil)
	// Retention keeps the training set tracking recent traffic, so gated
	// retrains after the shift train on the new tenant mix.
	svc.Training().SetRetention("app", 1500)
	if err := svc.Deploy("app", clf); err != nil {
		return nil, nil, err
	}
	var ctl *querc.Controller
	if loopCfg != nil {
		ctl = svc.EnableDriftControl(*loopCfg)
	}

	var accs []float64
	for lo := 0; lo < len(st.sqls); lo += st.batch {
		hi := lo + st.batch
		if hi > len(st.sqls) {
			hi = len(st.sqls)
		}
		out, err := svc.SubmitBatch("app", st.sqls[lo:hi], workers)
		if err != nil {
			return nil, nil, err
		}
		correct := 0
		truth := make([]*querc.LabeledQuery, len(out))
		for i, q := range out {
			if q.Label("user") == st.users[lo+i] {
				correct++
			}
			truth[i] = &querc.LabeledQuery{
				SQL:    st.sqls[lo+i],
				Labels: map[string]string{"user": st.users[lo+i]},
			}
		}
		accs = append(accs, float64(correct)/float64(len(out)))
		svc.Training().IngestBatch("app", truth)
		if ctl != nil {
			ctl.Tick()
			if os.Getenv("DRIFT_DEBUG") != "" {
				for _, a := range ctl.Status() {
					for _, k := range a.Keys {
						fmt.Printf("  dbg batch=%d score=%.3f (c=%.3f l=%.3f h=%.3f) gate=%q old=%.2f new=%.2f\n",
							lo/st.batch, k.Score.Total, k.Score.CentroidShift, k.Score.LabelDivergence,
							k.Score.CacheCollapse, k.LastGate, k.OldAcc, k.NewAcc)
					}
				}
			}
		}
	}
	return accs, ctl, nil
}

// meanTail averages the last n values of xs.
func meanTail(xs []float64, n int) float64 {
	if n > len(xs) {
		n = len(xs)
	}
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs[len(xs)-n:] {
		s += x
	}
	return s / float64(n)
}
