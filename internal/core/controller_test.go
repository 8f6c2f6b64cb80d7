package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"querc/internal/drift"
	"querc/internal/vec"
)

// byteEmb is a deterministic text-hash embedder: distinct texts get distinct
// directions, so workload shifts move the interval centroid.
type byteEmb struct{ dim int }

func (e byteEmb) Embed(sql string) vec.Vector {
	v := vec.New(e.dim)
	h := uint64(14695981039346656037)
	for i := 0; i < len(sql); i++ {
		h = (h ^ uint64(sql[i])) * 1099511628211
		v[int(h%uint64(e.dim))] += float64(h%7) - 3
	}
	v.Normalize()
	return v
}
func (e byteEmb) Dim() int     { return e.dim }
func (e byteEmb) Name() string { return "byte" }

// memoLabeler memorizes exact vector -> label pairs; unseen vectors label "".
// It makes gate outcomes deterministic: the incumbent scores 0 on a shifted
// holdout, a challenger trained on the shifted data scores 1.
type memoLabeler struct {
	mu sync.RWMutex
	m  map[string]string
}

func newMemoLabeler() *memoLabeler { return &memoLabeler{m: make(map[string]string)} }

func memoKey(v vec.Vector) string { return fmt.Sprintf("%.6f", []float64(v)) }

func (l *memoLabeler) Fit(X []vec.Vector, y []string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range X {
		l.m[memoKey(X[i])] = y[i]
	}
	return nil
}

func (l *memoLabeler) Label(v vec.Vector) string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.m[memoKey(v)]
}

func (l *memoLabeler) Name() string { return "memo" }

// phasePool returns a pool of texts plus the ground-truth user for each.
func phasePool(phase string, size int) (texts, users []string) {
	texts = make([]string, size)
	users = make([]string, size)
	for i := range texts {
		texts[i] = fmt.Sprintf("select %s_%02d from %s_tbl where k = %d", phase, i, phase, i*i)
		users[i] = fmt.Sprintf("u%02d", i%4)
	}
	return texts, users
}

// replayPhase submits n queries drawn cyclically from the pool and ingests
// the matching ground-truth labels (the log-import path — exactly how
// delayed true labels reach the training module in production).
func replayPhase(t *testing.T, svc *Service, app string, texts, users []string, n int) {
	t.Helper()
	sqls := make([]string, n)
	truth := make([]*LabeledQuery, n)
	for i := 0; i < n; i++ {
		sqls[i] = texts[i%len(texts)]
		truth[i] = &LabeledQuery{SQL: sqls[i], Labels: map[string]string{"user": users[i%len(users)]}}
	}
	if _, err := svc.SubmitBatch(app, sqls, 2); err != nil {
		t.Fatal(err)
	}
	svc.Training().IngestBatch(app, truth)
}

func driftTestService(t *testing.T) (*Service, *Qworker) {
	t.Helper()
	svc := NewService()
	w := svc.AddApplication("a", 256, nil)
	svc.Training().SetRetention("a", 120)
	emb := byteEmb{dim: 16}
	texts, users := phasePool("alpha", 10)
	lab := newMemoLabeler()
	X := make([]vec.Vector, len(texts))
	for i, s := range texts {
		X[i] = emb.Embed(s)
	}
	if err := lab.Fit(X, users); err != nil {
		t.Fatal(err)
	}
	if err := svc.Deploy("a", &Classifier{LabelKey: "user", Embedder: emb, Labeler: lab}); err != nil {
		t.Fatal(err)
	}
	return svc, w
}

// TestControllerRetrainsOnDrift is the end-to-end loop test: a stationary
// phase establishes the baseline and never trips the threshold, a shifted
// phase trips it, the gated retrain promotes a challenger trained on the
// shifted data, and the deployed classifier starts labeling the new
// workload correctly.
func TestControllerRetrainsOnDrift(t *testing.T) {
	svc, w := driftTestService(t)
	ctl := svc.EnableDriftControl(ControllerConfig{
		Threshold:      0.25,
		Cooldown:       time.Nanosecond,
		MinTrainingSet: 20,
		HoldoutFrac:    0.5,
		Detector:       drift.Config{MinQueries: 20},
		NewLabeler:     func(string, string) TrainableLabeler { return newMemoLabeler() },
	})
	alphaTexts, alphaUsers := phasePool("alpha", 10)

	replayPhase(t, svc, "a", alphaTexts, alphaUsers, 100)
	ctl.Tick() // first sample becomes the baseline
	replayPhase(t, svc, "a", alphaTexts, alphaUsers, 100)
	ctl.Tick() // stationary: must not retrain
	if r, _, _ := ctl.Counters("a"); r != 0 {
		t.Fatalf("stationary workload triggered %d retrains", r)
	}
	st := ctl.Status()
	if len(st) != 1 || len(st[0].Keys) != 1 {
		t.Fatalf("unexpected status shape: %+v", st)
	}
	if got := st[0].Keys[0].Score.Total; got >= 0.25 {
		t.Fatalf("stationary score %.3f >= threshold", got)
	}

	before := w.Classifiers()[0]
	betaTexts, betaUsers := phasePool("beta", 10)
	replayPhase(t, svc, "a", betaTexts, betaUsers, 100)
	ctl.Tick() // shifted: must retrain and promote
	retrains, promotions, _ := ctl.Counters("a")
	if retrains == 0 || promotions == 0 {
		t.Fatalf("shift produced retrains=%d promotions=%d", retrains, promotions)
	}
	after := w.Classifiers()[0]
	if before == after {
		t.Fatal("promotion did not hot-swap the classifier")
	}
	q, err := svc.Submit("a", betaTexts[3])
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Label("user"); got != betaUsers[3] {
		t.Fatalf("post-promotion label %q, want %q", got, betaUsers[3])
	}
	// The promoted deploy rebased the detector: the shifted workload is the
	// new normal. The promotion owes at most one consolidation pass — with
	// the memo labeler both models tie at 1.0 on the holdout, so the strict
	// consolidation gate rejects it and ends the chain — after which the
	// stationary workload must leave the loop quiet.
	for i := 0; i < 2; i++ {
		replayPhase(t, svc, "a", betaTexts, betaUsers, 100)
		ctl.Tick()
	}
	mid, midProm, _ := ctl.Counters("a")
	if mid > retrains+1 {
		t.Fatalf("consolidation chained past the strict gate: retrains %d -> %d", retrains, mid)
	}
	if midProm != promotions {
		t.Fatalf("tie challenger promoted by consolidation: promotions %d -> %d", promotions, midProm)
	}
	for i := 0; i < 2; i++ {
		replayPhase(t, svc, "a", betaTexts, betaUsers, 100)
		ctl.Tick()
	}
	if r2, _, _ := ctl.Counters("a"); r2 != mid {
		t.Fatalf("loop flapped after rebase: retrains %d -> %d", mid, r2)
	}
}

// TestControllerRecoversAllKeysOnSharedApp guards the rebase scope: two
// drifted classifiers share one app, the first promotion rebases the per-app
// baseline, and the sibling key — whose drift signal that rebase erased —
// must still get retrained (via the consolidation marking) instead of
// staying rotten forever.
func TestControllerRecoversAllKeysOnSharedApp(t *testing.T) {
	svc := NewService()
	svc.AddApplication("a", 256, nil)
	svc.Training().SetRetention("a", 120)
	emb := byteEmb{dim: 16}
	alphaTexts, alphaUsers := phasePool("alpha", 10)
	teamOf := func(user string) string { return "team-" + user[len(user)-1:] }
	for _, key := range []string{"user", "team"} {
		lab := newMemoLabeler()
		X := make([]vec.Vector, len(alphaTexts))
		y := make([]string, len(alphaTexts))
		for i, s := range alphaTexts {
			X[i] = emb.Embed(s)
			y[i] = alphaUsers[i]
			if key == "team" {
				y[i] = teamOf(alphaUsers[i])
			}
		}
		if err := lab.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := svc.Deploy("a", &Classifier{LabelKey: key, Embedder: emb, Labeler: lab}); err != nil {
			t.Fatal(err)
		}
	}
	// The cooldown is real here (unlike the other tests): it blocks the
	// sibling key during the tick where the first key promotes and rebases,
	// which is exactly the starvation scenario under test.
	const cooldown = 200 * time.Millisecond
	ctl := svc.EnableDriftControl(ControllerConfig{
		Threshold:      0.25,
		Cooldown:       cooldown,
		MinTrainingSet: 20,
		HoldoutFrac:    0.5,
		Detector:       drift.Config{MinQueries: 20},
		NewLabeler:     func(string, string) TrainableLabeler { return newMemoLabeler() },
	})
	replay := func(texts, users []string) {
		t.Helper()
		n := 100
		sqls := make([]string, n)
		truth := make([]*LabeledQuery, n)
		for i := 0; i < n; i++ {
			sqls[i] = texts[i%len(texts)]
			u := users[i%len(users)]
			truth[i] = &LabeledQuery{SQL: sqls[i], Labels: map[string]string{"user": u, "team": teamOf(u)}}
		}
		if _, err := svc.SubmitBatch("a", sqls, 2); err != nil {
			t.Fatal(err)
		}
		svc.Training().IngestBatch("a", truth)
	}
	replay(alphaTexts, alphaUsers)
	ctl.Tick() // baseline
	betaTexts, betaUsers := phasePool("beta", 10)
	// First post-shift tick: one key promotes and rebases the app; the
	// other is blocked by the cooldown. Later ticks (after the cooldown)
	// must still retrain it via the consolidation marking, even though the
	// rebase reset its score.
	replay(betaTexts, betaUsers)
	ctl.Tick()
	for i := 0; i < 4; i++ {
		time.Sleep(cooldown + 50*time.Millisecond)
		replay(betaTexts, betaUsers)
		ctl.Tick()
	}
	promoted := map[string]int64{}
	for _, app := range ctl.Status() {
		for _, k := range app.Keys {
			promoted[k.LabelKey] = k.Promotions
		}
	}
	if promoted["user"] == 0 || promoted["team"] == 0 {
		t.Fatalf("rebase starved a sibling key: promotions %v", promoted)
	}
	q, err := svc.Submit("a", betaTexts[4])
	if err != nil {
		t.Fatal(err)
	}
	if q.Label("user") != betaUsers[4] || q.Label("team") != teamOf(betaUsers[4]) {
		t.Fatalf("post-recovery labels %v, want user=%s team=%s", q.Labels, betaUsers[4], teamOf(betaUsers[4]))
	}
}

// TestControllerMinTrainingSetPerKey: MinTrainingSet counts the drifted
// key's labeled rows, not the app's whole log. The logs carry only "user"
// labels, so the "team" classifier has nothing to train on and must never
// count a retrain, while "user" still retrains.
func TestControllerMinTrainingSetPerKey(t *testing.T) {
	svc := NewService()
	svc.AddApplication("a", 256, nil)
	emb := byteEmb{dim: 16}
	for _, key := range []string{"user", "team"} {
		if err := svc.Deploy("a", &Classifier{LabelKey: key, Embedder: emb, Labeler: newMemoLabeler()}); err != nil {
			t.Fatal(err)
		}
	}
	ctl := svc.EnableDriftControl(ControllerConfig{
		Threshold:      -1, // every scored tick counts as drift
		Cooldown:       time.Nanosecond,
		MinTrainingSet: 20,
		HoldoutFrac:    0.5,
		Detector:       drift.Config{MinQueries: 20},
		NewLabeler:     func(string, string) TrainableLabeler { return newMemoLabeler() },
	})
	texts, users := phasePool("alpha", 10)
	for i := 0; i < 3; i++ {
		replayPhase(t, svc, "a", texts, users, 100)
		ctl.Tick()
	}
	retrains := map[string]int64{}
	for _, app := range ctl.Status() {
		for _, k := range app.Keys {
			retrains[k.LabelKey] = k.Retrains
		}
	}
	if retrains["team"] != 0 {
		t.Fatalf("team retrained %d times with no labeled rows", retrains["team"])
	}
	if retrains["user"] == 0 {
		t.Fatal("user never retrained")
	}
}

// TestControllerGateRejectsWorseModel forces the challenger to lose: the
// replacement labeler is untrainable garbage, so the gate must reject it and
// keep the incumbent deployed.
func TestControllerGateRejectsWorseModel(t *testing.T) {
	svc, w := driftTestService(t)
	ctl := svc.EnableDriftControl(ControllerConfig{
		// The half-alpha/half-beta mix below drifts more gently than a full
		// shift (score ~0.16), so the trigger threshold sits lower here.
		Threshold:      0.12,
		Cooldown:       time.Nanosecond,
		MinTrainingSet: 20,
		HoldoutFrac:    0.5,
		Detector:       drift.Config{MinQueries: 20},
		// A challenger that learns nothing and labels everything wrong.
		NewLabeler: func(string, string) TrainableLabeler {
			l := newMemoLabeler()
			l.m["never"] = "never"
			return constLabeler{l}
		},
	})
	alphaTexts, alphaUsers := phasePool("alpha", 10)
	replayPhase(t, svc, "a", alphaTexts, alphaUsers, 100)
	ctl.Tick()
	before := w.Classifiers()[0]
	betaTexts, betaUsers := phasePool("beta", 10)
	// Half alpha, half beta: the incumbent still scores > 0 on the holdout,
	// so the all-wrong challenger cannot ride the zero-accuracy tie.
	mixTexts := append(append([]string(nil), alphaTexts...), betaTexts...)
	mixUsers := append(append([]string(nil), alphaUsers...), betaUsers...)
	replayPhase(t, svc, "a", mixTexts, mixUsers, 100)
	ctl.Tick()
	retrains, promotions, rejections := ctl.Counters("a")
	if retrains == 0 {
		t.Fatal("expected a retrain attempt")
	}
	if promotions != 0 || rejections == 0 {
		t.Fatalf("worse challenger got through the gate: promotions=%d rejections=%d", promotions, rejections)
	}
	if w.Classifiers()[0] != before {
		t.Fatal("rejected challenger was deployed")
	}
}

// constLabeler wraps a memoLabeler but always predicts a fixed wrong label.
type constLabeler struct{ *memoLabeler }

func (c constLabeler) Label(vec.Vector) string { return "wrong-user" }

// TestDeployRacesControllerRedeploy runs manual Deploy calls against the
// controller's automatic gated redeploys on the same app under the race
// detector — the hot-swap path must stay safe when operators and the control
// loop fight over a label key.
func TestDeployRacesControllerRedeploy(t *testing.T) {
	svc, _ := driftTestService(t)
	ctl := svc.EnableDriftControl(ControllerConfig{
		Threshold:      -1, // retrain on every scored tick
		Cooldown:       time.Nanosecond,
		MinTrainingSet: 20,
		HoldoutFrac:    0.5,
		Detector:       drift.Config{MinQueries: 20},
		NewLabeler:     func(string, string) TrainableLabeler { return newMemoLabeler() },
	})
	alphaTexts, alphaUsers := phasePool("alpha", 10)
	betaTexts, betaUsers := phasePool("beta", 10)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		emb := byteEmb{dim: 16}
		lab := newMemoLabeler()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := svc.Deploy("a", &Classifier{LabelKey: "user", Embedder: emb, Labeler: lab}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 30; round++ {
		texts, users := alphaTexts, alphaUsers
		if round%2 == 1 {
			texts, users = betaTexts, betaUsers
		}
		replayPhase(t, svc, "a", texts, users, 60)
		ctl.Tick()
	}
	close(stop)
	wg.Wait()
	if r, _, _ := ctl.Counters("a"); r == 0 {
		t.Fatal("controller never attempted a retrain during the race")
	}
}

// TestControllerStartStop exercises the wall-clock loop: a fast interval
// must tick on its own, and Stop must terminate it cleanly (twice).
func TestControllerStartStop(t *testing.T) {
	svc, _ := driftTestService(t)
	ctl := svc.EnableDriftControl(ControllerConfig{Interval: time.Millisecond})
	if again := svc.EnableDriftControl(ControllerConfig{}); again != ctl {
		t.Fatal("EnableDriftControl is not idempotent")
	}
	ctl.Start()
	ctl.Start() // no-op
	deadline := time.After(2 * time.Second)
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
	for ctl.Ticks() == 0 {
		select {
		case <-deadline:
			t.Fatal("background loop never ticked")
		case <-poll.C:
		}
	}
	ctl.Stop()
	ctl.Stop() // no-op
}
