package core

import (
	"fmt"
	"sync"

	"querc/internal/vec"
)

// TrainingModule is the central "Training, Evaluation & Offline Labeling"
// component of Fig. 1. It accumulates ground-truth labeled queries from the
// databases' query logs (IngestBatch, quercd's POST /v1/apps/{app}/logs),
// manages per-application training sets, retrains labelers against a shared
// embedder, and deploys the refreshed classifiers back to Qworkers. Served
// queries never enter it: they carry the incumbent model's predictions, and
// training or scoring on those would grade the model against itself.
//
// Ingestion is sharded per application: each app owns its own mutex, so log
// imports for different apps never contend, and the retention trim copies
// into a fresh slice instead of re-slicing (which would pin the full old
// backing array).
//
// Per the paper's design, training is an infrequent batch activity — the
// architecture is deliberately not a continuous-learning system (§2), so the
// module exposes explicit Retrain calls instead of background loops.
type TrainingModule struct {
	mu      sync.RWMutex
	shards  map[string]*appShard // app -> its private log shard
	vectors *VectorCache         // shared embedding-plane cache; nil disables
}

// appShard holds one application's accumulated queries behind its own lock.
type appShard struct {
	mu    sync.Mutex
	log   []*LabeledQuery // retained queries, oldest first
	limit int             // retention cap; <= 0 means unlimited
}

// NewTrainingModule returns an empty training module.
func NewTrainingModule() *TrainingModule {
	return &TrainingModule{shards: make(map[string]*appShard)}
}

// SetVectorCache attaches the shared vector cache consulted (and filled) by
// Retrain and Evaluate, so retraining several labelers on one embedder
// embeds the training set once. nil disables caching.
func (t *TrainingModule) SetVectorCache(c *VectorCache) {
	t.mu.Lock()
	t.vectors = c
	t.mu.Unlock()
}

// vectorCache returns the attached cache (possibly nil).
func (t *TrainingModule) vectorCache() *VectorCache {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.vectors
}

// shard returns app's shard, creating it on first use. The read-lock fast
// path keeps steady-state ingestion from contending on the module lock.
func (t *TrainingModule) shard(app string) *appShard {
	if s := t.peek(app); s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.shards[app]
	if s == nil {
		s = &appShard{}
		t.shards[app] = s
	}
	return s
}

// peek returns app's shard without creating one, so read-only paths queried
// with arbitrary (possibly attacker-chosen) app names never grow the map.
func (t *TrainingModule) peek(app string) *appShard {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.shards[app]
}

// SetRetention caps the number of retained queries for an application
// (oldest dropped first). limit <= 0 means unlimited.
func (t *TrainingModule) SetRetention(app string, limit int) {
	s := t.shard(app)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = limit
	// Lowering the cap should release memory promptly, not at the next
	// slack-triggered compaction.
	if over := s.retainedLocked(); len(over) < len(s.log) {
		fresh := make([]*LabeledQuery, len(over))
		copy(fresh, over)
		s.log = fresh
	}
}

// Ingest records one ground-truth log record for q.App (IngestBatch of one).
func (t *TrainingModule) Ingest(q *LabeledQuery) {
	t.IngestBatch(q.App, []*LabeledQuery{q})
}

// IngestBatch records a batch of ground-truth log records for app: the
// database log-export path, and the only way true labels reach the training
// module. It is safe for concurrent use; different applications never
// contend.
//
// The log compacts once it reaches twice the retention cap: copying
// survivors into a right-sized slice releases the dropped prefix's backing
// array (a reslice trim would pin it forever), and the 2x slack keeps the
// copy amortized O(1) per ingested query instead of O(limit) per ingest.
// Reads apply the cap strictly via retainedLocked, so the slack is invisible
// to callers.
func (t *TrainingModule) IngestBatch(app string, qs []*LabeledQuery) {
	s := t.shard(app)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, q := range qs {
		q.App = app
	}
	s.log = append(s.log, qs...)
	if s.limit > 0 && len(s.log) >= 2*s.limit {
		fresh := make([]*LabeledQuery, s.limit)
		copy(fresh, s.log[len(s.log)-s.limit:])
		s.log = fresh
	}
}

// retainedLocked returns the strict capped view of the log (no copy).
// Callers hold s.mu.
func (s *appShard) retainedLocked() []*LabeledQuery {
	if s.limit > 0 && len(s.log) > s.limit {
		return s.log[len(s.log)-s.limit:]
	}
	return s.log
}

// snapshot returns a copy of the retained queries.
func (s *appShard) snapshot() []*LabeledQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*LabeledQuery(nil), s.retainedLocked()...)
}

// TrainingSet returns the retained queries for app that carry the given
// label key — the training set for that labeling task.
func (t *TrainingModule) TrainingSet(app, labelKey string) []*LabeledQuery {
	s := t.peek(app)
	if s == nil {
		return nil
	}
	var out []*LabeledQuery
	for _, q := range s.snapshot() {
		if _, ok := q.Labels[labelKey]; ok {
			out = append(out, q)
		}
	}
	return out
}

// Size returns the number of retained queries for app.
func (t *TrainingModule) Size(app string) int {
	s := t.peek(app)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.retainedLocked())
}

// Fit is the one path from labeled text to a classifier: it embeds sqls
// through EmbedAllCached (workers goroutines; cache may be nil), fits labeler
// on the vectors against the index-aligned labels y, and returns the
// deployable classifier writing under key. The training module and every §4
// labeling app train through it.
func Fit(key string, embedder Embedder, labeler TrainableLabeler, sqls, y []string, workers int, cache *VectorCache) (*Classifier, error) {
	if len(sqls) != len(y) || len(sqls) == 0 {
		return nil, fmt.Errorf("core: fit %q: need as many labels as texts, at least one (%d, %d)", key, len(sqls), len(y))
	}
	if err := labeler.Fit(EmbedAllCached(embedder, sqls, workers, cache), y); err != nil {
		return nil, fmt.Errorf("core: fit %q: %w", key, err)
	}
	return &Classifier{LabelKey: key, Embedder: embedder, Labeler: labeler}, nil
}

// texts splits labeled queries into their texts and labelKey values.
func texts(set []*LabeledQuery, labelKey string) (sqls, y []string) {
	sqls = make([]string, len(set))
	y = make([]string, len(set))
	for i, q := range set {
		sqls[i], y[i] = q.SQL, q.Labels[labelKey]
	}
	return sqls, y
}

// accuracy is the fraction of X that l labels as the aligned truth y.
func accuracy(l Labeler, X []vec.Vector, y []string) float64 {
	correct := 0
	for i, v := range X {
		if l.Label(v) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// Retrain fits labeler on app's training set for labelKey using embedder for
// features, then returns the deployable classifier. workers parallelizes the
// embedding pass, which runs on the shared embedding plane: each distinct
// text is embedded once, warm vectors come from the shared cache, so
// retraining several labelers against one embedder pays the embedding cost
// of the training set only the first time.
func (t *TrainingModule) Retrain(app, labelKey string, embedder Embedder, labeler TrainableLabeler, workers int) (*Classifier, error) {
	set := t.TrainingSet(app, labelKey)
	if len(set) == 0 {
		return nil, fmt.Errorf("core: no training data for app %q label %q", app, labelKey)
	}
	sqls, y := texts(set, labelKey)
	c, err := Fit(labelKey, embedder, labeler, sqls, y, workers, t.vectorCache())
	if err != nil {
		return nil, fmt.Errorf("core: retrain %s: %w", app, err)
	}
	return c, nil
}

// RetrainGated retrains labeler for (app, labelKey) with a clean old-vs-new
// comparison: the last holdoutFrac of the training set is held out, the
// challenger is fitted on the rest only (unlike Retrain, which trains on the
// full set), and both the incumbent and the challenger are scored on the
// same holdout. The challenger rides the incumbent's embedder — embedders
// are the expensive, centrally trained, shared half of a classifier, and the
// drift plane retrains only the cheap per-tenant labeler. The caller — the
// drift controller — feeds the accuracies to eval.ShouldPromote; nothing is
// deployed here. Because the training set is kept in arrival order and
// retention-capped, the holdout is the most recent traffic: exactly the
// slice a drifted workload has shifted. A set of fewer than two rows cannot
// be split into both halves and is rejected before anything is fitted.
//
// Returns the fitted challenger classifier, the incumbent's and challenger's
// holdout accuracies, and the holdout size.
func (t *TrainingModule) RetrainGated(app, labelKey string, old *Classifier, labeler TrainableLabeler, holdoutFrac float64, workers int) (*Classifier, float64, float64, int, error) {
	set := t.TrainingSet(app, labelKey)
	if len(set) < 2 {
		return nil, 0, 0, 0, fmt.Errorf("core: training set for %s/%s too small to gate (%d)", app, labelKey, len(set))
	}
	if holdoutFrac <= 0 || holdoutFrac > 0.5 {
		holdoutFrac = 0.2
	}
	split := min(int(float64(len(set))*(1-holdoutFrac)), len(set)-1) // >= 1 since holdoutFrac <= 0.5
	sqls, y := texts(set, labelKey)
	cache := t.vectorCache()
	fresh, err := Fit(labelKey, old.Embedder, labeler, sqls[:split], y[:split], workers, cache)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("core: retrain %s: %w", app, err)
	}
	holdX := EmbedAllCached(old.Embedder, sqls[split:], workers, cache)
	holdY := y[split:]
	return fresh, accuracy(old.Labeler, holdX, holdY), accuracy(labeler, holdX, holdY), len(holdY), nil
}

// Evaluate measures holdout accuracy of a classifier on app's training set
// for labelKey: the last holdoutFrac of the set is scored, the rest ignored
// (the training module's bookkeeping for deployment decisions). The holdout
// is embedded on the same batch path as Retrain, so an Evaluate right after
// Retrain re-embeds nothing.
func (t *TrainingModule) Evaluate(app, labelKey string, c *Classifier, holdoutFrac float64) (float64, int) {
	set := t.TrainingSet(app, labelKey)
	if holdoutFrac <= 0 || holdoutFrac > 1 {
		holdoutFrac = 0.2
	}
	hold := set[int(float64(len(set))*(1-holdoutFrac)):]
	if len(hold) == 0 {
		return 0, 0
	}
	sqls, y := texts(hold, labelKey)
	return accuracy(c.Labeler, EmbedAllCached(c.Embedder, sqls, 0, t.vectorCache()), y), len(hold)
}
