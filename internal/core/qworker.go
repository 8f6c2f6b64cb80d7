package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"querc/internal/drift"
	"querc/internal/obs"
	"querc/internal/vec"
)

// Qworker hosts the classifiers of one application stream (Fig. 1). Each
// incoming query is annotated by every classifier and forwarded downstream
// (the database). Served queries carry predicted labels, so none of them
// reach the training module: ground truth arrives only through the database
// log import (TrainingModule.IngestBatch). Qworkers keep only a small bounded
// window of recent queries as state, so they can be load balanced and
// parallelized in the usual ways (paper §2).
//
// Annotation runs on the embedding plane: the deployed classifiers are
// grouped by embedder identity (Embedder.Name()), each distinct embedder's
// vector is computed once per query text — consulting the shared vector
// cache first — and that vector is fanned out to every labeler on the
// embedder. Embedders are the expensive, centrally-trained, shared half of a
// classifier; labelers are cheap and per-tenant, so embed-once/label-many is
// where the hot path's headroom lives.
//
// The window is a fixed-size ring buffer: recording a query is one store and
// two index updates under the lock, and dropping the oldest entry never pins
// a retired backing array the way reslice-on-append did.
type Qworker struct {
	App string

	mu          sync.RWMutex
	classifiers []*Classifier
	plan        []embedderGroup // classifiers grouped by embedder identity
	vectors     *VectorCache    // shared embedding-plane cache; nil disables
	drift       *driftAccum     // drift-plane statistics; nil disables sampling
	tracer      *obs.Tracer     // lifecycle tracing; nil disables sampling
	ring        []*LabeledQuery // fixed-size ring buffer of recent queries
	ringStart   int             // index of the oldest retained query
	ringLen     int             // number of valid entries (<= len(ring))
	fwdClaimed  bool            // Forward was claimed explicitly (SetForward / AddApplication arg)
	fwdIsSched  bool            // Forward is the scheduling plane's edge (it settles traces)

	// Forward receives annotated queries bound for the database. nil when
	// Querc is out of the critical path (fork-only deployments, §2). It must
	// be safe for concurrent use when ProcessBatch runs with >1 worker.
	Forward func(*LabeledQuery)

	// processed counts queries handled, on the observability plane's atomic
	// counter so monitoring snapshots never race the hot path (exposed as
	// querc_app_processed_total{app=...} when the Service registers it).
	processed *obs.Counter
}

// embedderGroup is one distinct embedder and the classifiers deployed on it
// — the fan-out unit of the embedding plane.
type embedderGroup struct {
	name     string
	embedder Embedder
	clfs     []*Classifier
}

// groupByEmbedder builds the embed plan for a classifier snapshot: one group
// per distinct Embedder.Name(), in deploy order. Name identifies the trained
// model, so two classifiers reporting the same name are assumed to share it
// and the first deployed instance embeds for the whole group.
func groupByEmbedder(clfs []*Classifier) []embedderGroup {
	groups := make([]embedderGroup, 0, len(clfs))
	idx := make(map[string]int, len(clfs))
	for _, c := range clfs {
		name := c.Embedder.Name()
		gi, ok := idx[name]
		if !ok {
			gi = len(groups)
			idx[name] = gi
			groups = append(groups, embedderGroup{name: name, embedder: c.Embedder})
		}
		groups[gi].clfs = append(groups[gi].clfs, c)
	}
	return groups
}

// NewQworker returns a worker for the named application with a bounded
// window of recent queries (windowSize <= 0 means 64). Workers created
// through Service.AddApplication additionally share the service's vector
// cache; standalone workers start uncached (SetVectorCache opts in).
func NewQworker(app string, windowSize int) *Qworker {
	if windowSize <= 0 {
		windowSize = 64
	}
	return &Qworker{App: app, ring: make([]*LabeledQuery, windowSize), processed: obs.NewCounter()}
}

// SetVectorCache attaches (or, with nil, detaches) the shared vector cache
// consulted by the embedding plane. Safe to call while Process or
// ProcessBatch runs; in-flight batches keep the cache they started with.
func (w *Qworker) SetVectorCache(c *VectorCache) {
	w.mu.Lock()
	w.vectors = c
	w.mu.Unlock()
}

// SetForward replaces the worker's downstream Forward edge and claims it: a
// later Service.AttachScheduler will not overwrite an edge installed here.
// Passing nil clears the edge and releases the claim — the worker forwards
// nowhere until the NEXT AttachScheduler call (or SetForward) wires it
// again. Safe to call while Process or ProcessBatch runs; in-flight batches
// keep the forward they started with.
func (w *Qworker) SetForward(f func(*LabeledQuery)) {
	w.mu.Lock()
	w.Forward = f
	w.fwdClaimed = f != nil
	w.fwdIsSched = false
	w.mu.Unlock()
}

// setSchedulerForward installs the scheduling plane's forward, unless the
// edge is explicitly claimed (SetForward, or a non-nil AddApplication
// forward) — the caller owns a claimed edge.
func (w *Qworker) setSchedulerForward(f func(*LabeledQuery)) {
	w.mu.Lock()
	if !w.fwdClaimed {
		w.Forward = f
		// The scheduling plane owns trace settlement on this edge: the
		// dispatcher settles every trace it admits, rejects, sheds, or
		// evicts, so the worker must not.
		w.fwdIsSched = f != nil
	}
	w.mu.Unlock()
}

// Deploy installs or replaces the classifier for its label key and rebuilds
// the embed plan. This is the "Model Deployment" arrow of Fig. 1; it is safe
// to call while Process or ProcessBatch runs.
func (w *Qworker) Deploy(c *Classifier) {
	w.mu.Lock()
	defer w.mu.Unlock()
	replaced := false
	for i, existing := range w.classifiers {
		if existing.LabelKey == c.LabelKey {
			w.classifiers[i] = c
			replaced = true
			break
		}
	}
	if !replaced {
		w.classifiers = append(w.classifiers, c)
	}
	// Rebuilt from scratch so snapshots handed to in-flight batches stay
	// immutable.
	w.plan = groupByEmbedder(w.classifiers)
}

// Classifiers returns the currently deployed classifiers.
func (w *Qworker) Classifiers() []*Classifier {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]*Classifier(nil), w.classifiers...)
}

// snapshot returns the current embed plan, vector cache, drift accumulator,
// and tracer. The plan slice is replaced wholesale by Deploy, never mutated,
// so it is safe to read without the lock after return.
func (w *Qworker) snapshot() ([]embedderGroup, *VectorCache, *driftAccum, *obs.Tracer) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.plan, w.vectors, w.drift, w.tracer
}

// SetTracer attaches (or, with nil, detaches) lifecycle tracing: the worker
// begins a trace per sampled query and records annotation-pipeline spans
// onto it. Service.EnableTracing turns this on for every registered worker.
// In-flight batches keep the tracer they started with.
func (w *Qworker) SetTracer(tr *obs.Tracer) {
	w.mu.Lock()
	w.tracer = tr
	w.mu.Unlock()
}

// SetDriftSampling enables (or, with false, disables) drift-plane statistics
// accumulation on this worker's hot path: per-embedder centroid sums,
// per-label-key predicted-value counts, and embedding-plane hit/miss
// counters. Sampling is off by default — Service.EnableDriftControl turns it
// on for every registered worker. In-flight batches keep the setting they
// started with.
func (w *Qworker) SetDriftSampling(on bool) {
	w.mu.Lock()
	if on && w.drift == nil {
		w.drift = newDriftAccum()
	} else if !on {
		w.drift = nil
	}
	w.mu.Unlock()
}

// TakeDriftSample drains the drift statistics accumulated since the previous
// call (or since sampling was enabled) as one interval sample for the drift
// detector, resetting the accumulator. It returns nil when sampling is
// disabled or no queries were processed in the interval.
func (w *Qworker) TakeDriftSample() *drift.Sample {
	w.mu.RLock()
	acc, plan := w.drift, w.plan
	w.mu.RUnlock()
	if acc == nil {
		return nil
	}
	return acc.take(w.App, plan)
}

// Process annotates q with every deployed classifier's prediction, records
// it in the window, and forwards it. It returns the annotated query.
// Classification runs outside the lock; only the ring-buffer store is
// serialized, so concurrent callers overlap on the expensive embedding work.
// Each distinct embedder runs once per query — cache hit or one Embed — and
// its vector is fanned to all labelers in the group.
//
//querc:hotpath
func (w *Qworker) Process(q *LabeledQuery) *LabeledQuery {
	q.App = w.App
	plan, cache, acc, tracer := w.snapshot()
	if q.trace == nil {
		q.trace = tracer.Begin(w.App, q.SQL)
	}
	tr := q.trace
	var vs []vec.Vector // per-group vectors, collected only for drift sampling
	var sqs []float64
	var hits, misses int64
	if acc != nil {
		vs = make([]vec.Vector, len(plan))
		sqs = make([]float64, len(plan))
	}
	// The query text is lexed at most once per submit: the first embedder
	// group that misses the cache pays for tokenization and every later
	// group reuses the token sequence (TokenizedEmbedder). Cache hits skip
	// tokenization entirely.
	var toks []string
	tokenized := false
	for gi := range plan {
		g := &plan[gi]
		v, ok := cache.Get(g.name, q.SQL)
		if !ok {
			if te, isTok := g.embedder.(TokenizedEmbedder); isTok {
				if !tokenized {
					t0 := traceNow(tr)
					toks = TokenizeForEmbedding(q.SQL)
					tr.MarkTokenize(traceSince(tr, t0))
					tokenized = true
				}
				t0 := traceNow(tr)
				v = te.EmbedTokens(toks)
				tr.MarkEmbed(traceSince(tr, t0))
			} else {
				t0 := traceNow(tr)
				v = g.embedder.Embed(q.SQL)
				tr.MarkEmbed(traceSince(tr, t0))
			}
			cache.Put(g.name, q.SQL, v)
			misses++
		} else {
			hits++
			tr.MarkCacheHit()
		}
		if vs != nil {
			vs[gi] = v
			sqs[gi] = vec.Dot(v, v)
		}
		t0 := traceNow(tr)
		for _, c := range g.clfs {
			c.LabelVector(q, v)
		}
		tr.MarkLabel(traceSince(tr, t0))
	}
	if acc != nil {
		acc.merge(plan, []*LabeledQuery{q}, vs, sqs, hits, misses)
	}
	w.mu.Lock()
	w.recordLocked(q)
	forward, fwdSched := w.Forward, w.fwdIsSched
	w.mu.Unlock()
	w.processed.Inc()

	if forward != nil {
		forward(q)
	}
	// With a scheduler on the forward edge the dispatcher settles the trace
	// (whatever the admission outcome); otherwise the pipeline ends here.
	if forward == nil || !fwdSched {
		tr.Settle(obs.OutcomeAnnotated, nil)
	}
	return q
}

// traceNow returns a span start only when a trace is live — the untraced hot
// path skips the clock read entirely.
//
//querc:hotpath
func traceNow(tr *obs.Trace) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// traceSince closes a span opened by traceNow (zero when untraced).
//
//querc:hotpath
func traceSince(tr *obs.Trace, t0 time.Time) time.Duration {
	if tr == nil {
		return 0
	}
	return time.Since(t0)
}

// batchChunk is the unit of work one batch worker claims at a time: big
// enough to amortize the ring-buffer lock, small enough to keep the pool
// balanced on skewed batches.
const batchChunk = 64

// ProcessBatch annotates every query in qs, fanning the work out across a
// bounded pool of workers goroutines (workers <= 0 uses GOMAXPROCS). Each
// query takes the same path as Process — classify, record in the window,
// forward — and qs keeps its input order, with qs[i] annotated in place. As
// with concurrent Process callers, the window ordering reflects completion
// order, not input order, when workers > 1. This is the batch-ingest path of
// WiSeDB/LearnedWMP-style workloads, where queries arrive as a batch rather
// than a stream.
//
// The batch path shares work across the batch in ways the per-query path
// cannot: the deployed classifier set is snapshotted once for the whole
// batch (a concurrent Deploy takes effect on the next batch), and each
// distinct query text is embedded at most once per distinct embedder for the
// whole batch — first via the cross-application vector cache, then via a
// per-batch memo, with misses embedded chunk-at-a-time through the
// BatchEmbedder fast path. The vector is the cached, cross-batch shared
// artifact; labels are additionally memoized per (classifier, text) within
// the batch so expensive labelers also run once per distinct text. Window
// recording is amortized per chunk rather than per query.
func (w *Qworker) ProcessBatch(qs []*LabeledQuery, workers int) []*LabeledQuery {
	if len(qs) == 0 {
		return qs
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Classification is CPU-bound, so workers beyond the machine's
	// parallelism only time-slice one P and pay the pool's coordination
	// (chunk claims, memo synchronization, goroutine switches) with no
	// parallel payoff — on a single-core host the clamp routes the batch
	// through the inline path below.
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers > (len(qs)+batchChunk-1)/batchChunk {
		workers = (len(qs) + batchChunk - 1) / batchChunk
	}
	plan, cache, acc, tracer := w.snapshot()
	w.mu.RLock()
	forward, fwdSched := w.Forward, w.fwdIsSched
	w.mu.RUnlock()
	// One vector memo per embedder group, shared by all batch workers, so
	// repeats spanning chunks stay deduped even when the shared cache is
	// disabled. A vector computed twice concurrently is benign: embedders
	// are pure functions of the text, so the store is last-writer-wins over
	// identical values.
	memos := make([]sync.Map, len(plan))
	// Labelers are pure functions of the vector too, so labels are also
	// memoized per (classifier, text) for the batch — expensive labelers
	// (forests) run once per distinct text, not once per occurrence.
	labelMemos := make([][]sync.Map, len(plan))
	for gi := range plan {
		labelMemos[gi] = make([]sync.Map, len(plan[gi].clfs))
	}

	var next atomic.Int64
	run := func() {
		local := make(map[string]vec.Vector, batchChunk)
		miss := make([]string, 0, batchChunk)
		// Tokens for cache-missed texts, shared across embedder groups and
		// chunks within this worker so each distinct text is lexed once per
		// worker instead of once per (embedder, occurrence).
		toksMemo := make(map[string][]string, batchChunk)
		for {
			lo := int(next.Add(batchChunk)) - batchChunk
			if lo >= len(qs) {
				return
			}
			hi := lo + batchChunk
			if hi > len(qs) {
				hi = len(qs)
			}
			chunk := qs[lo:hi]
			for _, q := range chunk {
				q.App = w.App
				// The batch path traces the submit→settle envelope plus
				// scheduling-plane spans; per-stage annotation spans are a
				// Process-path feature (batch work is chunk-amortized and
				// memoized, so per-query stage costs are not attributable).
				if q.trace == nil {
					q.trace = tracer.Begin(w.App, q.SQL)
				}
			}
			// Drift sampling, when enabled, sums the chunk's vectors per
			// embedder group and counts embed-plane hits vs misses — one
			// vector add per query plus one accumulator merge per chunk.
			var chunkSums []vec.Vector
			var chunkSqs []float64
			var chunkHits, chunkMisses int64
			if acc != nil {
				chunkSums = make([]vec.Vector, len(plan))
				chunkSqs = make([]float64, len(plan))
			}
			for gi := range plan {
				g := &plan[gi]
				// Embed phase: resolve one vector per distinct text in the
				// chunk — batch memo, then shared cache, then inference.
				clear(local)
				miss = miss[:0]
				for _, q := range chunk {
					if _, ok := local[q.SQL]; ok {
						chunkHits++
						continue
					}
					if v, ok := memos[gi].Load(q.SQL); ok {
						local[q.SQL] = v.(vec.Vector)
						chunkHits++
						continue
					}
					if v, ok := cache.Get(g.name, q.SQL); ok {
						local[q.SQL] = v
						memos[gi].Store(q.SQL, v)
						chunkHits++
						continue
					}
					local[q.SQL] = nil
					miss = append(miss, q.SQL)
					chunkMisses++
				}
				if len(miss) > 0 {
					vs := embedMissing(g.embedder, miss, toksMemo)
					for i, sql := range miss {
						local[sql] = vs[i]
						memos[gi].Store(sql, vs[i])
						cache.Put(g.name, sql, vs[i])
					}
				}
				// Label phase: fan each vector to every labeler on the
				// embedder, computing each (classifier, text) label once.
				for _, q := range chunk {
					v := local[q.SQL]
					for ci, c := range g.clfs {
						if cached, ok := labelMemos[gi][ci].Load(q.SQL); ok {
							q.SetLabel(c.LabelKey, cached.(string))
							continue
						}
						labelMemos[gi][ci].Store(q.SQL, c.LabelVector(q, v))
					}
				}
				if chunkSums != nil {
					sum := vec.New(g.embedder.Dim())
					var sq float64
					for _, q := range chunk {
						v := local[q.SQL]
						sum.Add(v)
						sq += vec.Dot(v, v)
					}
					chunkSums[gi] = sum
					chunkSqs[gi] = sq
				}
			}
			if acc != nil {
				acc.merge(plan, chunk, chunkSums, chunkSqs, chunkHits, chunkMisses)
			}
			w.recordChunk(chunk)
			if forward != nil {
				for _, q := range chunk {
					forward(q)
				}
			}
			if forward == nil || !fwdSched {
				for _, q := range chunk {
					q.trace.Settle(obs.OutcomeAnnotated, nil)
				}
			}
		}
	}
	if workers <= 1 {
		run()
		return qs
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	return qs
}

// recordLocked stores q in the ring buffer, evicting the oldest entry when
// full. Callers hold w.mu.
func (w *Qworker) recordLocked(q *LabeledQuery) {
	w.ring[(w.ringStart+w.ringLen)%len(w.ring)] = q
	if w.ringLen < len(w.ring) {
		w.ringLen++
	} else {
		w.ringStart = (w.ringStart + 1) % len(w.ring)
	}
}

// recordChunk appends a chunk of annotated queries to the ring buffer under
// one lock acquisition.
func (w *Qworker) recordChunk(chunk []*LabeledQuery) {
	w.mu.Lock()
	for _, q := range chunk {
		w.recordLocked(q)
	}
	w.mu.Unlock()
	w.processed.Add(uint64(len(chunk)))
}

// Window returns a copy of the recent-query window (most recent last).
func (w *Qworker) Window() []*LabeledQuery {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]*LabeledQuery, w.ringLen)
	for i := 0; i < w.ringLen; i++ {
		out[i] = w.ring[(w.ringStart+i)%len(w.ring)]
	}
	return out
}

// Processed returns the number of queries handled so far.
func (w *Qworker) Processed() int64 {
	return int64(w.processed.Load())
}
