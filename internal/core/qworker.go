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
// Annotation runs on the embedding plane, through one routine for both entry
// points (Process is ProcessBatch of one): the deployed classifiers are
// grouped by embedder identity (Embedder.Name()), a call's queries are
// deduplicated by text, each distinct embedder's vector is computed once per
// distinct text — consulting the shared vector cache first — and that vector
// is fanned out to every labeler on the embedder. Embedders are the
// expensive, centrally-trained, shared half of a classifier; labelers are
// cheap and per-tenant, so embed-once/label-many is where the hot path's
// headroom lives.
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
	// Querc is out of the critical path (fork-only deployments, §2). Each
	// call forwards its queries in input order on the calling goroutine, so
	// it must be safe for concurrent use only when the worker is.
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

// view is one call's read-locked snapshot of the worker: the embed plan,
// vector cache, drift accumulator, tracer, and forward edge. Deploy replaces
// the plan slice wholesale and never mutates it, so a view stays valid
// without the lock.
type view struct {
	plan     []embedderGroup
	cache    *VectorCache
	acc      *driftAccum
	tracer   *obs.Tracer
	forward  func(*LabeledQuery)
	fwdSched bool
}

// snapshot returns the worker's current view under one read lock.
func (w *Qworker) snapshot() view {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return view{w.plan, w.vectors, w.drift, w.tracer, w.Forward, w.fwdIsSched}
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
// it in the window, and forwards it. It returns the annotated query. It is
// ProcessBatch of a one-element batch, run inline on the caller's goroutine.
//
//querc:hotpath
func (w *Qworker) Process(q *LabeledQuery) *LabeledQuery {
	one := [1]*LabeledQuery{q}
	w.ProcessBatch(one[:], 1)
	return q
}

// batchChunk is the unit of work one batch worker claims at a time: big
// enough to amortize the claim and the drift merge, small enough to keep the
// pool balanced on skewed batches.
const batchChunk = 64

// ProcessBatch annotates every query in qs, fanning the work out across a
// bounded pool of workers goroutines (workers <= 0 uses GOMAXPROCS), and
// returns qs with qs[i] annotated in place. This is the batch-ingest path of
// WiSeDB/LearnedWMP-style workloads, where queries arrive as a batch rather
// than a stream; Process is the batch of one.
//
// The deployed classifier set is snapshotted once per call (a concurrent
// Deploy takes effect on the next call). The batch is deduplicated by SQL
// text before any work: workers claim 64-text chunks of distinct queries
// only, so each distinct text is embedded at most once per distinct
// embedder — shared vector cache first — and labeled once per classifier.
// Repeats then copy their first occurrence's labels. The window record, the
// Forward edge, and the annotated trace settle run once per call, in input
// order.
func (w *Qworker) ProcessBatch(qs []*LabeledQuery, workers int) []*LabeledQuery {
	if len(qs) == 0 {
		return qs
	}
	b := batch{view: w.snapshot()}
	s := scratchPool.Get().(*batchScratch)
	b.uniq, b.mult = s.dedupe(w.App, b.tracer, qs)
	// Classification is CPU-bound, so workers beyond the machine's
	// parallelism only time-slice one P and pay the pool's coordination
	// with no parallel payoff: on a single-core host the batch runs inline.
	// A single worker skips the GOMAXPROCS read, which takes a runtime lock.
	if workers != 1 {
		if p := runtime.GOMAXPROCS(0); workers <= 0 || workers > p {
			workers = p
		}
		workers = min(workers, (len(b.uniq)+batchChunk-1)/batchChunk)
	}
	if workers == 1 { // alone, the caller walks the chunks without claiming them
		for lo := 0; lo < len(b.uniq); lo += batchChunk {
			s.annotate(&b, lo)
		}
	} else {
		s.next.Store(0)
		for i := 1; i < workers; i++ {
			s.wg.Add(1)
			go help(s, b)
		}
		drain(s, s, &b)
		s.wg.Wait()
	}

	if len(b.uniq) < len(qs) {
		for _, q := range qs {
			src := b.uniq[s.first[q.SQL]]
			if src == q {
				continue
			}
			q.trace.MarkCacheHit()
			for gi := range b.plan {
				for _, c := range b.plan[gi].clfs {
					q.SetLabel(c.LabelKey, src.Labels[c.LabelKey])
				}
			}
		}
	}
	w.record(qs)
	for _, q := range qs {
		if b.forward != nil {
			b.forward(q)
		}
		// With a scheduler on the forward edge the dispatcher settles the
		// trace (whatever the admission outcome); otherwise the pipeline
		// ends here.
		if b.forward == nil || !b.fwdSched {
			q.trace.Settle(obs.OutcomeAnnotated, nil)
		}
	}
	clear(s.first)
	clear(b.uniq) // drop the query references before pooling
	scratchPool.Put(s)
	return qs
}

// batch is one call's work, shared read-only by its workers: the worker's
// view and the deduplicated queries with their multiplicities.
type batch struct {
	view
	uniq []*LabeledQuery // distinct queries: first occurrences, in input order
	mult []int32         // occurrences of each distinct query in the call
}

// batchScratch is the pooled working set of one annotating goroutine, so a
// warm Process allocates nothing of its own. The call's own scratch also
// holds the dedupe index and the chunk claims its extra workers share. Its
// slices are stored back only when they grow: every pointer store into a
// pooled object costs a GC write barrier on the warm path.
type batchScratch struct {
	first map[string]int32 // text -> index into uniq (batches of more than one)
	uniq  []*LabeledQuery  // backing store of batch.uniq
	mult  []int32          // backing store of batch.mult
	next  atomic.Int64     // offset of the next unclaimed chunk of uniq
	wg    sync.WaitGroup   // extra workers still draining

	vecs [][]vec.Vector // per embedder group: the chunk's vectors
	toks [][]string     // per chunk query: tokens, lexed at most once across groups
	miss []int          // chunk indices that missed the cache in the current group
}

var scratchPool = sync.Pool{New: func() any {
	return &batchScratch{first: make(map[string]int32)}
}}

// single is the multiplicities of a batch of one; it is never written.
var single = [1]int32{1}

// grow returns *s resliced to length n, replacing *s only when its capacity
// is short.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// dedupe begins every query's trace and returns the batch's distinct queries
// and their multiplicities, indexing texts in s.first.
func (s *batchScratch) dedupe(app string, tracer *obs.Tracer, qs []*LabeledQuery) ([]*LabeledQuery, []int32) {
	for _, q := range qs {
		q.App = app
		q.trace = tracer.Begin(app, q.SQL)
	}
	uniq := grow(&s.uniq, len(qs))[:0]
	if len(qs) == 1 { // a batch of one needs no index
		return append(uniq, qs[0]), single[:]
	}
	mult := grow(&s.mult, len(qs))[:0]
	for _, q := range qs {
		if j, seen := s.first[q.SQL]; seen {
			mult[j]++
			continue
		}
		s.first[q.SQL] = int32(len(uniq))
		uniq = append(uniq, q)
		mult = append(mult, 1)
	}
	return uniq, mult
}

// help runs one extra batch worker on chunk scratch of its own.
func help(job *batchScratch, b batch) {
	defer job.wg.Done()
	own := scratchPool.Get().(*batchScratch)
	drain(job, own, &b)
	scratchPool.Put(own)
}

// drain claims chunks of b's distinct queries through job until none remain,
// annotating each with cs's chunk state.
func drain(job, cs *batchScratch, b *batch) {
	for {
		lo := int(job.next.Add(batchChunk)) - batchChunk
		if lo >= len(b.uniq) {
			return
		}
		cs.annotate(b, lo)
	}
}

// annotate labels the chunk of b's distinct queries that starts at lo,
// embedder group by group: each text is looked up in the shared cache, each
// miss is lexed at most once across groups, embedded, and cached, and the
// vector is fanned to every labeler in the group. Drift statistics weight
// each text by its multiplicity, counting repeats as cache hits; sampled
// queries get the chunk's tokenize, embed, and label time split evenly over
// its length. Vectors stay in the scratch until the next chunk overwrites
// them: they are immutable cache values, and clearing them would cost write
// barriers.
func (s *batchScratch) annotate(b *batch, lo int) {
	hi := min(lo+batchChunk, len(b.uniq))
	v, chunk, mult := &b.view, b.uniq[lo:hi], b.mult[lo:hi]
	traced := false
	for _, q := range chunk {
		traced = traced || q.trace != nil
	}
	vecs := grow(&s.vecs, len(v.plan))
	toks := grow(&s.toks, len(chunk))
	lexed := false
	var tokenize, embed, label time.Duration
	var hits, misses int64
	for gi := range v.plan {
		g := &v.plan[gi]
		vs := grow(&vecs[gi], len(chunk))
		miss := grow(&s.miss, len(chunk))[:0]
		for i, q := range chunk {
			if hit, ok := v.cache.Get(g.name, q.SQL); ok {
				vs[i] = hit
				hits += int64(mult[i])
				q.trace.MarkCacheHit()
				continue
			}
			miss = append(miss, i)
			misses++
			hits += int64(mult[i]) - 1 // repeats reuse this vector
		}
		if len(miss) > 0 {
			t0 := traceNow(traced)
			if te, ok := g.embedder.(TokenizedEmbedder); ok {
				for _, i := range miss {
					if toks[i] == nil {
						toks[i] = TokenizeForEmbedding(chunk[i].SQL)
						lexed = true
					}
				}
				t1 := traceNow(traced)
				tokenize += t1.Sub(t0)
				t0 = t1
				for _, i := range miss {
					vs[i] = te.EmbedTokens(toks[i])
				}
			} else {
				texts := make([]string, len(miss))
				for j, i := range miss {
					texts[j] = chunk[i].SQL
				}
				for j, ev := range EmbedTexts(g.embedder, texts) {
					vs[miss[j]] = ev
				}
			}
			embed += traceNow(traced).Sub(t0)
			for _, i := range miss {
				v.cache.Put(g.name, chunk[i].SQL, vs[i])
			}
		}
		t0 := traceNow(traced)
		for i, q := range chunk {
			for _, c := range g.clfs {
				c.LabelVector(q, vs[i])
			}
		}
		label += traceNow(traced).Sub(t0)
	}
	if v.acc != nil {
		v.acc.merge(v.plan, chunk, mult, vecs, hits, misses)
	}
	if traced {
		n := time.Duration(len(chunk))
		for _, q := range chunk {
			q.trace.MarkTokenize(tokenize / n)
			q.trace.MarkEmbed(embed / n)
			q.trace.MarkLabel(label / n)
		}
	}
	if lexed {
		clear(toks) // a miss's tokens must not pass for the next chunk's
	}
}

// traceNow returns a span stamp only when the chunk carries a live trace —
// the untraced hot path skips the clock read, and its spans come out zero.
//
//querc:hotpath
func traceNow(traced bool) time.Time {
	if !traced {
		return time.Time{}
	}
	return time.Now()
}

// record stores qs in the ring buffer in order, evicting the oldest entries
// when full, under one lock acquisition.
func (w *Qworker) record(qs []*LabeledQuery) {
	w.mu.Lock()
	for _, q := range qs {
		w.ring[(w.ringStart+w.ringLen)%len(w.ring)] = q
		if w.ringLen < len(w.ring) {
			w.ringLen++
		} else {
			w.ringStart = (w.ringStart + 1) % len(w.ring)
		}
	}
	w.mu.Unlock()
	w.processed.Add(uint64(len(qs)))
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
