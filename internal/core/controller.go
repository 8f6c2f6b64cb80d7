package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"querc/internal/drift"
	"querc/internal/ml/eval"
	"querc/internal/ml/forest"
	"querc/internal/obs"
)

// ControllerConfig tunes the drift control loop. The zero value asks for
// defaults everywhere.
type ControllerConfig struct {
	// Interval is the tick period of the background loop started by Start
	// (each tick drains every worker's drift sample). Default 30s.
	Interval time.Duration
	// Threshold is the drift score at or above which a (app, label key)
	// pair is retrained. Default 0.25; an explicit 0 is treated as unset
	// (scores are never negative, so use a negative threshold to retrain
	// on every scored tick — useful in tests and experiments).
	Threshold float64
	// Cooldown is the minimum time between retrain attempts for one
	// application, whatever the scores say — the rate limit that turns a
	// sustained drift signal into one retrain instead of a retrain storm.
	// Default 4x Interval.
	Cooldown time.Duration
	// MinTrainingSet skips retraining when the training module holds fewer
	// labeled examples for the (app, key) pair. Default 64.
	MinTrainingSet int
	// HoldoutFrac is the recent-traffic fraction both the incumbent and the
	// retrained challenger are scored on (TrainingModule.RetrainGated).
	// Default 0.2.
	HoldoutFrac float64
	// MinGain is the holdout-accuracy margin a challenger must clear over
	// the incumbent (see eval.ShouldPromote). Default 0.
	MinGain float64
	// Workers bounds the embedding parallelism of gated retrains. <= 0 uses
	// GOMAXPROCS.
	Workers int
	// Detector tunes the drift detector (weights, minimum interval size).
	Detector drift.Config
	// NewLabeler supplies the untrained challenger labeler for a retrain.
	// nil uses a fresh default-config forest.
	NewLabeler func(app, labelKey string) TrainableLabeler
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Interval <= 0 {
		c.Interval = 30 * time.Second
	}
	if c.Threshold == 0 {
		c.Threshold = 0.25
	}
	if c.Cooldown == 0 {
		c.Cooldown = 4 * c.Interval
	}
	if c.MinTrainingSet <= 0 {
		c.MinTrainingSet = 64
	}
	if c.HoldoutFrac <= 0 {
		c.HoldoutFrac = 0.2
	}
	if c.NewLabeler == nil {
		c.NewLabeler = func(string, string) TrainableLabeler {
			return NewForestLabeler(forest.DefaultConfig())
		}
	}
	return c
}

// KeyDriftStatus is the drift-plane bookkeeping for one (app, label key)
// pair, surfaced by quercd's GET /v1/drift.
type KeyDriftStatus struct {
	LabelKey string      `json:"labelKey"`
	Score    drift.Score `json:"score"` // last observed score
	// LastRetrain is the wall time of the last retrain attempt (zero when
	// none has run); LastGate describes its outcome: "promoted",
	// "rejected", or "error: ...".
	LastRetrain time.Time `json:"lastRetrain,omitzero"`
	LastGate    string    `json:"lastGate,omitempty"`
	// OldAcc / NewAcc are the incumbent's and challenger's holdout
	// accuracies from the last gate, over HoldoutN examples.
	OldAcc   float64 `json:"oldAcc"`
	NewAcc   float64 `json:"newAcc"`
	HoldoutN int     `json:"holdoutN"`
	// Retrains counts attempts; Promotions and Rejections its outcomes.
	Retrains   int64 `json:"retrains"`
	Promotions int64 `json:"promotions"`
	Rejections int64 `json:"rejections"`
}

// AppDriftStatus aggregates one application's drift state.
type AppDriftStatus struct {
	App  string           `json:"app"`
	Keys []KeyDriftStatus `json:"keys"`
}

// Controller closes the loop of the drift plane: it periodically drains each
// Qworker's drift sample, scores it with a drift.Detector, and — when a
// classifier's score crosses the threshold — runs a gated retrain against
// the training module's fresh shards, hot-swapping the challenger in only
// when it wins on recent holdout traffic (eval.ShouldPromote).
//
// Two guards keep the loop from pathological behavior:
//
//   - retrains are rate-limited per application (Cooldown) and serialized
//     per application (one retrain at a time), so a sustained drift signal
//     produces one retrain per cooldown window, not a retrain storm;
//   - after a promotion the detector is rebased — the post-deploy
//     distribution becomes the new normal — so the loop does not flap
//     between retrains on a stale baseline. A rejected challenger does NOT
//     rebase: the drift is real but retraining cannot fix it yet (e.g. the
//     training set still lags the shift), so the signal stays armed and the
//     cooldown schedules the next attempt.
//
// A promotion also schedules one follow-up "consolidation" retrain after
// the cooldown: right after a shift the first promoted challenger is
// typically trained on a set still mixed across both regimes, and the set
// keeps converging toward the new distribution, so one more gated pass
// usually finds a strictly better model. Consolidation passes use a strict
// gate — the challenger must beat the incumbent outright (newAcc > oldAcc +
// MinGain, no sampling-noise discount), because an equivalent model adds no
// value and a tie-promotes rule would chain forever. The chain continues
// while challengers keep strictly improving and stops at the first
// rejection, so it is bounded by the same cooldown and gate that prevent
// retrain storms.
//
// Construct via Service.EnableDriftControl; drive with Start/Stop for
// wall-clock operation or Tick for deterministic replay (experiments,
// tests).
type Controller struct {
	svc *Service
	cfg ControllerConfig
	det *drift.Detector

	mu     sync.Mutex
	apps   map[string]*appControl
	stop   chan struct{}
	done   chan struct{}
	ticks  *obs.Counter
	onceMu sync.Mutex // serializes Start/Stop pairs
}

// appControl is the per-application control state: retrain serialization,
// rate limiting, and status.
type appControl struct {
	mu          sync.Mutex // serializes retrains for this app
	lastRetrain time.Time
	keys        map[string]*KeyDriftStatus
	// counters holds the per-key retrain/promotion/rejection tallies as
	// registry counters (querc_drift_*_total{app,key}); the int64 fields on
	// KeyDriftStatus are filled from these at snapshot time, so writers
	// (maybeRetrain) and JSON snapshots (Status/Counters) never race on
	// plain fields.
	counters map[string]*keyCounters
	// consolidate marks label keys owed a follow-up retrain after a
	// promotion (see Controller doc).
	consolidate map[string]bool
}

// keyCounters are one (app, key) pair's drift-plane registry counters.
type keyCounters struct {
	retrains   *obs.Counter
	promotions *obs.Counter
	rejections *obs.Counter
}

// newController wires a controller to svc (see Service.EnableDriftControl).
// The tick counter registers eagerly so the drift plane is visible on
// GET /metrics from the moment the loop exists, even before any retrain.
func newController(svc *Service, cfg ControllerConfig) *Controller {
	return &Controller{
		svc:   svc,
		cfg:   cfg.withDefaults(),
		det:   drift.NewDetector(cfg.Detector),
		apps:  make(map[string]*appControl),
		ticks: svc.metrics.Counter("querc_drift_ticks_total", "Drift control-loop iterations."),
	}
}

// Config returns the resolved (defaulted) configuration.
func (c *Controller) Config() ControllerConfig { return c.cfg }

// Start launches the background loop, ticking every Interval until Stop.
// Calling Start twice without Stop is a no-op.
func (c *Controller) Start() {
	c.onceMu.Lock()
	defer c.onceMu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(c.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				c.Tick()
			}
		}
	}(c.stop, c.done)
}

// Stop halts the background loop and waits for an in-flight tick to finish.
func (c *Controller) Stop() {
	c.onceMu.Lock()
	defer c.onceMu.Unlock()
	if c.stop == nil {
		return
	}
	close(c.stop)
	// Holding onceMu across the wait is the point: it serializes Stop
	// against Start, and the loop goroutine signalling done never takes
	// onceMu, so this cannot deadlock.
	//querc:allow-race lifecycle mutex deliberately held while awaiting loop exit
	<-c.done
	c.stop, c.done = nil, nil
}

// Tick runs one control-loop iteration synchronously: drain every worker's
// drift sample, score it, and retrain whatever crossed the threshold.
// Experiments and tests call Tick directly to replay workloads
// deterministically; the Start loop calls it on a wall-clock timer.
func (c *Controller) Tick() {
	c.ticks.Inc()
	for _, app := range c.svc.Apps() {
		w := c.svc.Worker(app)
		if w == nil {
			continue
		}
		sample := w.TakeDriftSample()
		if sample == nil {
			continue
		}
		scores := c.det.Observe(sample)
		if len(scores) == 0 {
			continue
		}
		ac := c.appControl(app)
		var due []drift.Score
		c.mu.Lock()
		for _, sc := range scores {
			st := ac.keys[sc.LabelKey]
			if st == nil {
				st = &KeyDriftStatus{LabelKey: sc.LabelKey}
				ac.keys[sc.LabelKey] = st
			}
			st.Score = sc
			// A key retrains when it drifted past the threshold, or when a
			// prior promotion left a consolidation pass owed: the training
			// set keeps converging toward the post-shift distribution after
			// the first promote, so one more gated retrain usually finds a
			// strictly better model. The chain stops at the first rejection.
			if sc.Total >= c.cfg.Threshold || ac.consolidate[sc.LabelKey] {
				due = append(due, sc)
			}
		}
		c.mu.Unlock()
		for _, sc := range due {
			// A pass owed only to a prior promotion (score back under the
			// threshold) is a consolidation pass and gates strictly.
			c.maybeRetrain(ac, sc, sc.Total < c.cfg.Threshold)
		}
	}
}

// Ticks returns the number of control-loop iterations run so far.
func (c *Controller) Ticks() int64 { return int64(c.ticks.Load()) }

// appControl returns (creating if needed) app's control state.
func (c *Controller) appControl(app string) *appControl {
	c.mu.Lock()
	defer c.mu.Unlock()
	ac := c.apps[app]
	if ac == nil {
		ac = &appControl{
			keys:        make(map[string]*KeyDriftStatus),
			counters:    make(map[string]*keyCounters),
			consolidate: make(map[string]bool),
		}
		c.apps[app] = ac
	}
	return ac
}

// keyCountersLocked resolves (creating on first use) the registry counters
// for (app, key). Callers hold c.mu; registry shard locks nest inside it.
func (c *Controller) keyCountersLocked(ac *appControl, app, key string) *keyCounters {
	kc := ac.counters[key]
	if kc == nil {
		r := c.svc.metrics
		kc = &keyCounters{
			retrains:   r.Counter("querc_drift_retrains_total", "Gated retrain attempts per (app, label key).", "app", app, "key", key),
			promotions: r.Counter("querc_drift_promotions_total", "Retrained challengers promoted past the gate.", "app", app, "key", key),
			rejections: r.Counter("querc_drift_rejections_total", "Retrained challengers rejected by the gate.", "app", app, "key", key),
		}
		ac.counters[key] = kc
	}
	return kc
}

// maybeRetrain runs one rate-limited, per-app-serialized gated retrain for
// the scored (app, key) pair. consolidation selects the strict gate (see
// the Controller doc).
func (c *Controller) maybeRetrain(ac *appControl, sc drift.Score, consolidation bool) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if since := time.Since(ac.lastRetrain); !ac.lastRetrain.IsZero() && since < c.cfg.Cooldown {
		return
	}
	app, key := sc.App, sc.LabelKey
	if len(c.svc.Training().TrainingSet(app, key)) < c.cfg.MinTrainingSet {
		return
	}
	var old *Classifier
	w := c.svc.Worker(app)
	if w == nil {
		return
	}
	for _, clf := range w.Classifiers() {
		if clf.LabelKey == key {
			old = clf
			break
		}
	}
	if old == nil {
		return
	}
	ac.lastRetrain = time.Now()
	fresh, oldAcc, newAcc, n, err := c.svc.Training().RetrainGated(
		app, key, old, c.cfg.NewLabeler(app, key), c.cfg.HoldoutFrac, c.cfg.Workers)

	c.mu.Lock()
	st := ac.keys[key]
	kc := c.keyCountersLocked(ac, app, key)
	st.LastRetrain = ac.lastRetrain
	kc.retrains.Inc()
	if err != nil {
		st.LastGate = fmt.Sprintf("error: %v", err)
		c.mu.Unlock()
		return
	}
	st.OldAcc, st.NewAcc, st.HoldoutN = oldAcc, newAcc, n
	var promote bool
	if consolidation {
		promote = newAcc > oldAcc+c.cfg.MinGain
	} else {
		promote = eval.ShouldPromote(oldAcc, newAcc, n, c.cfg.MinGain)
	}
	if promote {
		st.LastGate = "promoted"
		kc.promotions.Inc()
	} else {
		st.LastGate = "rejected"
		kc.rejections.Inc()
	}
	ac.consolidate[key] = promote
	c.mu.Unlock()

	if promote {
		// Rebasing is per app (baselines share the embedder centroids and
		// cache hit rate), so it also erases any sibling key's un-acted-on
		// drift signal. Keep those keys due by marking them for a
		// consolidation pass: once the rebased detector scores again, they
		// retrain under the strict gate even though their score has reset.
		c.mu.Lock()
		for k, other := range ac.keys {
			if k != key && other.Score.Total >= c.cfg.Threshold {
				ac.consolidate[k] = true
			}
		}
		c.mu.Unlock()
		w.Deploy(fresh)
		// The post-deploy distribution is what the fresh model was trained
		// for: make it the new baseline so the loop does not flap.
		c.det.Rebase(app)
	}
}

// Status reports the drift-plane state per application, sorted by app name,
// for quercd's /v1/drift endpoint.
func (c *Controller) Status() []AppDriftStatus {
	apps := c.svc.Apps()
	out := make([]AppDriftStatus, 0, len(apps))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, app := range apps {
		st := AppDriftStatus{App: app}
		if ac := c.apps[app]; ac != nil {
			keys := make([]string, 0, len(ac.keys))
			for k := range ac.keys {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				cp := *ac.keys[k]
				if kc := ac.counters[k]; kc != nil {
					cp.Retrains = int64(kc.retrains.Load())
					cp.Promotions = int64(kc.promotions.Load())
					cp.Rejections = int64(kc.rejections.Load())
				}
				st.Keys = append(st.Keys, cp)
			}
		}
		out = append(out, st)
	}
	return out
}

// Counters sums retrain/promotion/rejection counts for one app — the cheap
// rollup quercd folds into /v1/stats.
func (c *Controller) Counters(app string) (retrains, promotions, rejections int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ac := c.apps[app]; ac != nil {
		for _, kc := range ac.counters {
			retrains += int64(kc.retrains.Load())
			promotions += int64(kc.promotions.Load())
			rejections += int64(kc.rejections.Load())
		}
	}
	return retrains, promotions, rejections
}
