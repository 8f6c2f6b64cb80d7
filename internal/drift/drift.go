// Package drift implements online workload-drift detection for deployed
// classifiers — the observation half of Querc's drift plane.
//
// The paper's premise is that workload management is learned, not configured
// (§1), which cuts both ways: a classifier trained on last month's workload
// silently rots as the tenant mix shifts. Package drift watches the query
// stream each Qworker already maintains and scores how far the current
// distribution has moved from the distribution the deployed classifier was
// trained on, using three cheap signals:
//
//   - centroid shift: the mean embedding vector of recent queries, per
//     embedder, compared against the baseline centroid by Euclidean
//     distance normalized to the baseline's within-interval spread (a
//     z-score-like statistic, squashed to [0, 1]). The normalization
//     matters: learned SQL embeddings share one large common component
//     across all queries, so a raw cosine between centroids barely moves
//     even when the workload changes completely — but measured in units of
//     the distribution's own spread, a schema change shifts the mean by
//     ~1 spread while sampling noise stays an order of magnitude smaller;
//   - label-distribution divergence: the Jensen–Shannon divergence between
//     the baseline and current distributions of predicted label values, per
//     label key. A labeler suddenly predicting a different mix is either
//     seeing different traffic or failing on the same traffic — both are
//     grounds for retraining;
//   - vector-cache hit-rate collapse: production workloads are dominated by
//     literally repeated query texts (§5.2), so the embedding-plane cache
//     hit rate is a cheap proxy for text novelty. A collapse means the
//     repeated pool itself changed.
//
// A Detector consumes per-interval Samples (produced by the Qworker hot
// path at near-zero cost) and emits per-(app, label key) Scores in [0, 1].
// The control loop that acts on those scores — retraining, evaluation
// gating, rate limiting — lives in internal/core's Controller; this package
// is pure measurement and holds no references into the runtime.
package drift

import (
	"math"
	"sort"
	"sync"

	"querc/internal/vec"
)

// EmbedderStats summarizes the vectors one embedder produced over a sample
// interval: their mean (the centroid), their mean squared norm (which,
// together with the centroid, yields the within-interval spread
// E||v||² − ||μ||²), and how many queries contributed.
type EmbedderStats struct {
	Centroid vec.Vector
	SqNorm   float64 // mean of ||v||² over the interval
	Count    int
}

// spread returns the within-interval variance E||v||² − ||μ||², clamped at 0.
func (st EmbedderStats) spread() float64 {
	s := st.SqNorm - vec.Dot(st.Centroid, st.Centroid)
	if s < 0 {
		return 0
	}
	return s
}

// Sample is one interval's worth of workload statistics for one application,
// accumulated on the Qworker hot path (the same path that feeds its
// ring-buffer window) and drained by the control loop each tick.
type Sample struct {
	App string
	// Queries is the number of queries processed in the interval.
	Queries int
	// Embedders maps embedder name -> centroid statistics for the interval.
	Embedders map[string]EmbedderStats
	// Labels maps label key -> predicted value -> count.
	Labels map[string]map[string]int
	// KeyEmbedder maps label key -> the embedder name its classifier rides,
	// so scores can pair a label distribution with the right centroid.
	KeyEmbedder map[string]string
	// CacheHits / CacheMisses count embedding-plane lookups over the
	// interval, one per query per embedder; a repeat within a batch counts as
	// a hit.
	CacheHits, CacheMisses int64
}

// HitRate returns the interval's cache hit rate, or 0 before any lookup.
func (s *Sample) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Score is the drift verdict for one (app, label key) pair: the three signal
// components, each in [0, 1], and their weighted combination.
type Score struct {
	App      string `json:"app"`
	LabelKey string `json:"labelKey"`
	Queries  int    `json:"queries"`
	// CentroidShift is the distance between the baseline and current
	// embedding centroids for the classifier's embedder, in units of the
	// baseline distribution's spread, squashed to [0, 1] via z/(1+z).
	CentroidShift float64 `json:"centroidShift"`
	// LabelDivergence is the normalized Jensen–Shannon divergence between
	// the baseline and current predicted-label distributions.
	LabelDivergence float64 `json:"labelDivergence"`
	// CacheCollapse is the drop in embedding-plane cache hit rate relative
	// to the baseline interval (0 when the rate held or improved).
	CacheCollapse float64 `json:"cacheCollapse"`
	// Total is the weighted average of the three components.
	Total float64 `json:"total"`
}

// Config tunes a Detector. The zero value asks for defaults everywhere.
type Config struct {
	// MinQueries is the minimum interval size scored; smaller samples are
	// folded into the next interval rather than scored noisily. Default 32.
	MinQueries int
	// CentroidWeight, LabelWeight and CacheWeight set the relative weight
	// of the three signals in Score.Total. All zero means 1 / 1 / 0.5
	// (the hit-rate proxy is the noisiest signal, so it gets half weight).
	CentroidWeight, LabelWeight, CacheWeight float64
}

func (c Config) withDefaults() Config {
	if c.MinQueries <= 0 {
		c.MinQueries = 32
	}
	if c.CentroidWeight == 0 && c.LabelWeight == 0 && c.CacheWeight == 0 {
		c.CentroidWeight, c.LabelWeight, c.CacheWeight = 1, 1, 0.5
	}
	return c
}

// Detector scores workload drift per (app, label key) against a per-app
// baseline. The first sample observed for an app (after construction or
// Rebase) becomes its baseline; later samples are scored against it. The
// baseline stays fixed until Rebase — a stationary workload therefore keeps
// scoring near zero, while a real shift keeps scoring high until the control
// loop retrains and rebaselines. Safe for concurrent use.
type Detector struct {
	cfg Config

	mu        sync.Mutex
	baselines map[string]*baseline // app -> baseline
	pending   map[string]*Sample   // app -> sub-MinQueries carry-over
}

// baseline is the reference distribution for one app.
type baseline struct {
	centroids map[string]baseCentroid // embedder name -> reference centroid
	labels    map[string]map[string]int
	hitRate   float64
}

// baseCentroid is one embedder's reference: the mean vector and the
// within-interval variance that scales shift measurements.
type baseCentroid struct {
	mean   vec.Vector
	spread float64
}

// NewDetector returns a detector with the given configuration.
func NewDetector(cfg Config) *Detector {
	return &Detector{
		cfg:       cfg.withDefaults(),
		baselines: make(map[string]*baseline),
		pending:   make(map[string]*Sample),
	}
}

// Rebase drops the baseline for app, so the next observed sample becomes the
// new reference. The control loop calls this after deploying a retrained
// classifier: the post-deploy distribution is, by definition, what the new
// model was trained for.
func (d *Detector) Rebase(app string) {
	d.mu.Lock()
	delete(d.baselines, app)
	delete(d.pending, app)
	d.mu.Unlock()
}

// Observe folds one interval sample into the detector and returns a drift
// score per label key present in the sample. It returns nil when the sample
// (plus any carried-over remainder) is still below MinQueries, and when the
// sample establishes a fresh baseline.
func (d *Detector) Observe(s *Sample) []Score {
	if s == nil || s.Queries == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p := d.pending[s.App]; p != nil {
		s = mergeSamples(p, s)
	}
	if s.Queries < d.cfg.MinQueries {
		d.pending[s.App] = s
		return nil
	}
	delete(d.pending, s.App)
	base := d.baselines[s.App]
	if base == nil {
		d.baselines[s.App] = newBaseline(s)
		return nil
	}
	return d.score(base, s)
}

// score computes per-label-key scores for s against base. Callers hold d.mu.
func (d *Detector) score(base *baseline, s *Sample) []Score {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wSum := d.cfg.CentroidWeight + d.cfg.LabelWeight + d.cfg.CacheWeight
	cacheCollapse := math.Max(0, base.hitRate-s.HitRate())
	out := make([]Score, 0, len(keys))
	for _, k := range keys {
		sc := Score{
			App:           s.App,
			LabelKey:      k,
			Queries:       s.Queries,
			CacheCollapse: cacheCollapse,
		}
		if emb := s.KeyEmbedder[k]; emb != "" {
			if cur, ok := s.Embedders[emb]; ok && cur.Count > 0 {
				if ref, ok := base.centroids[emb]; ok {
					sc.CentroidShift = centroidShift(ref, cur)
				}
			}
		}
		if ref := base.labels[k]; ref != nil {
			sc.LabelDivergence = jsDivergence(ref, s.Labels[k])
		}
		sc.Total = (d.cfg.CentroidWeight*sc.CentroidShift +
			d.cfg.LabelWeight*sc.LabelDivergence +
			d.cfg.CacheWeight*sc.CacheCollapse) / wSum
		out = append(out, sc)
	}
	return out
}

// newBaseline snapshots s as a reference distribution.
func newBaseline(s *Sample) *baseline {
	b := &baseline{
		centroids: make(map[string]baseCentroid, len(s.Embedders)),
		labels:    make(map[string]map[string]int, len(s.Labels)),
		hitRate:   s.HitRate(),
	}
	for name, st := range s.Embedders {
		if st.Count > 0 {
			b.centroids[name] = baseCentroid{
				mean:   append(vec.Vector(nil), st.Centroid...),
				spread: st.spread(),
			}
		}
	}
	for k, dist := range s.Labels {
		cp := make(map[string]int, len(dist))
		for v, n := range dist {
			cp[v] = n
		}
		b.labels[k] = cp
	}
	return b
}

// mergeSamples folds a carried-over sub-interval into the next sample so
// low-traffic apps are scored over enough queries. Centroids are combined as
// count-weighted means.
func mergeSamples(a, b *Sample) *Sample {
	out := &Sample{
		App:         b.App,
		Queries:     a.Queries + b.Queries,
		Embedders:   make(map[string]EmbedderStats, len(b.Embedders)),
		Labels:      make(map[string]map[string]int, len(b.Labels)),
		KeyEmbedder: make(map[string]string, len(b.KeyEmbedder)),
		CacheHits:   a.CacheHits + b.CacheHits,
		CacheMisses: a.CacheMisses + b.CacheMisses,
	}
	for _, s := range []*Sample{a, b} {
		for name, st := range s.Embedders {
			cur := out.Embedders[name]
			if cur.Count == 0 {
				cur.Centroid = vec.New(len(st.Centroid))
			}
			// Re-weight: stats are stored as means, so scale back by count.
			tot := float64(cur.Count + st.Count)
			for i := range st.Centroid {
				cur.Centroid[i] = (cur.Centroid[i]*float64(cur.Count) +
					st.Centroid[i]*float64(st.Count)) / tot
			}
			cur.SqNorm = (cur.SqNorm*float64(cur.Count) + st.SqNorm*float64(st.Count)) / tot
			cur.Count += st.Count
			out.Embedders[name] = cur
		}
		for k, dist := range s.Labels {
			m := out.Labels[k]
			if m == nil {
				m = make(map[string]int, len(dist))
				out.Labels[k] = m
			}
			for v, n := range dist {
				m[v] += n
			}
		}
		for k, emb := range s.KeyEmbedder {
			out.KeyEmbedder[k] = emb
		}
	}
	return out
}

// centroidShift scores how far the current centroid moved from the
// reference, in units of the reference distribution's spread: z = ||μc −
// μb|| / sqrt(spread), squashed to [0, 1] as z/(1+z). A degenerate
// reference with zero spread (e.g. a constant embedder) treats any nonzero
// movement as maximal shift; identical centroids always score 0.
func centroidShift(ref baseCentroid, cur EmbedderStats) float64 {
	if len(ref.mean) == 0 || len(ref.mean) != len(cur.Centroid) {
		return 0
	}
	d := vec.Distance(ref.mean, cur.Centroid)
	if d == 0 {
		return 0
	}
	z := d / math.Sqrt(ref.spread+1e-12)
	return z / (1 + z)
}

// jsDivergence returns the Jensen–Shannon divergence between two label-count
// distributions, normalized to [0, 1] (natural-log JS divides by ln 2).
func jsDivergence(p, q map[string]int) float64 {
	var pn, qn float64
	for _, n := range p {
		pn += float64(n)
	}
	for _, n := range q {
		qn += float64(n)
	}
	if pn == 0 || qn == 0 {
		return 0
	}
	keys := make(map[string]bool, len(p)+len(q))
	for k := range p {
		keys[k] = true
	}
	for k := range q {
		keys[k] = true
	}
	var div float64
	for k := range keys {
		pp := float64(p[k]) / pn
		qq := float64(q[k]) / qn
		m := (pp + qq) / 2
		if pp > 0 {
			div += pp / 2 * math.Log(pp/m)
		}
		if qq > 0 {
			div += qq / 2 * math.Log(qq/m)
		}
	}
	div /= math.Ln2
	if div < 0 {
		return 0
	}
	if div > 1 {
		return 1
	}
	return div
}
