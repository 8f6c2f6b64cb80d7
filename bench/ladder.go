package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"querc/internal/core"
	"querc/internal/lstm"
	"querc/internal/ml/forest"
	"querc/internal/obs"
	"querc/internal/snowgen"
	"querc/internal/vec"
	"querc/internal/vocab"
)

// ladderInputs is how many of a workload's texts the ladder replays; the
// steps that embed (≈0.3 ms each) use the first ladderEmbeds distinct ones.
const (
	ladderInputs = 5000
	ladderEmbeds = 1500
	nsBatch      = 256 // calls per span for ns-scale operations
)

// perLayerUnits names every per-layer metric the traced run reports, with
// its unit. BENCHMARK.json's per_layer list is checked against it.
var perLayerUnits = map[string]string{
	"sqllex.tokenize_us":             "us",
	"sqllex.tokenize_allocs":         "count",
	"sqllex.tokens_per_query":        "count",
	"vocab.encode_us":                "us",
	"vocab.oov_share":                "ratio",
	"doc2vec.infer_us":               "us",
	"doc2vec.infer_allocs":           "count",
	"doc2vec.infer_batch_us_per_doc": "us",
	"doc2vec.share_of_cpu":           "ratio",
	"lstm.encode_us":                 "us",
	"vec.dot_ns":                     "ns",
	"vec.addscaled_ns":               "ns",
	"cache.get_hit_ns":               "ns",
	"cache.get_miss_ns":              "ns",
	"cache.put_evict_ns":             "ns",
	"cache.contended_get_ns":         "ns",
	"cache.hit_ratio":                "ratio",
	"cache.evictions":                "count",
	"label.vector_us":                "us",
	"label.allocs":                   "count",
	"qworker.process_hit_us":         "us",
	"qworker.process_miss_us":        "us",
	"qworker.process_hit_allocs":     "count",
	"qworker.batch_us_per_query":     "us",
	"qworker.batch_dedup_ratio":      "ratio",
	"training.ingest_ns":             "ns",
	"training.retained":              "count",
	"edge.self_us_single":            "us",
	"edge.self_us_batch_per_query":   "us",
	"edge.resp_bytes_per_query":      "bytes",
	"edge.scrape_ms":                 "ms",
	"sched.enqueue_ns":               "ns",
	"sched.queue_wait_p50_us":        "us",
	"sched.queue_wait_p99_us":        "us",
	"sched.exec_p50_us":              "us",
	"sched.allocs_per_query":         "count",
	"sched.bare_qps":                 "queries/s",
	"sched.armed_qps":                "queries/s",
	"sched.tax_retry":                "ratio",
	"sched.tax_breaker":              "ratio",
	"sched.tax_memory":               "ratio",
	"sched.tax_observed":             "ratio",
	"sched.tax_armed":                "ratio",
	"sched.paced_p50_us":             "us",
	"sched.paced_p99_us":             "us",
	"obs.counter_inc_ns":             "ns",
	"obs.hist_observe_ns":            "ns",
	"obs.trace_begin_settle_ns":      "ns",
	"obs.audit_emit_ns":              "ns",
	"obs.writeprom_us":               "us",
	"drift.take_sample_us":           "us",
	"drift.tick_ms":                  "ms",
	"loadgen.late_p99_us":            "us",
	"loadgen.cpu_share":              "ratio",
	"lat_p99_us":                     "us",
	"lat_p999_us":                    "us",
	"lat_max_ms":                     "ms",
	"fail_share":                     "ratio",
	"trace.overhead_ratio":           "ratio",
}

// ladderInput is what the ladder replays: a workload's first texts against
// the registry model querctrain wrote and labelers retrained from the same
// ground-truth log the daemon ingested.
type ladderInput struct {
	corpus []snowgen.Query
	models string   // registry directory holding the trained embedder
	texts  []string // the workload's first inputs, in send order
	perReq int      // texts per request (batch size; 1 for streams)
}

// ladder times calls into each layer's public functions from outside, one
// span per call (or per nsBatch calls where a call is cheaper than a clock
// read), and turns the spans into the per-layer metrics.
type ladder struct {
	rec *recorder
	m   map[string]metric
}

func (l *ladder) set(name string, v float64) {
	l.m[name] = metric{Value: v, Unit: perLayerUnits[name]}
}

// each runs fn(i) for i in [0,n), one root span per call, and returns the mean duration per call in nanoseconds.
func (l *ladder) each(name string, n int, fn func(i int)) float64 {
	var total int64
	for i := 0; i < n; i++ {
		id := l.rec.begin(name, -1, i)
		fn(i)
		l.rec.end(id, 1)
		total += l.rec.spans[id].End - l.rec.spans[id].Start
	}
	return float64(total) / float64(max(n, 1))
}

// batched runs fn(i) for i in [0,n) under one span per nsBatch calls and
// returns the mean duration per call in nanoseconds.
func (l *ladder) batched(name string, n int, fn func(i int)) float64 {
	var total int64
	for lo := 0; lo < n; lo += nsBatch {
		hi := min(lo+nsBatch, n)
		id := l.rec.begin(name, -1, -1)
		for i := lo; i < hi; i++ {
			fn(i)
		}
		l.rec.end(id, hi-lo)
		total += l.rec.spans[id].End - l.rec.spans[id].Start
	}
	return float64(total) / float64(max(n, 1))
}

// allocsPer returns heap allocations per call of fn over n calls.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// inProcess builds the daemon's serving state inside the harness: the
// registry's embedder, the ground-truth log ingested, and the three forest
// classifiers retrained and deployed exactly as quercd's retrain handler
// does.
func inProcess(in ladderInput) (*core.Service, *core.Doc2VecEmbedder, error) {
	reg, err := core.NewRegistry(in.models)
	if err != nil {
		return nil, nil, err
	}
	svc := core.NewService()
	svc.AddApplication(appName, 256, nil)
	logs := make([]*core.LabeledQuery, len(in.corpus))
	for i, q := range in.corpus {
		logs[i] = &core.LabeledQuery{SQL: q.SQL, Labels: map[string]string{"account": q.Account, "user": q.User, "cluster": q.Cluster}}
	}
	svc.Training().IngestBatch(appName, logs)
	var first core.Embedder
	for _, key := range labelKeys {
		emb, _, err := reg.LoadEmbedder(modelName)
		if err != nil {
			return nil, nil, err
		}
		if first == nil {
			first = emb
		}
		if _, err := svc.RetrainAndDeploy(appName, key, emb, core.NewForestLabeler(forest.DefaultConfig()), 4); err != nil {
			return nil, nil, err
		}
	}
	d2v, ok := first.(*core.Doc2VecEmbedder)
	if !ok {
		return nil, nil, fmt.Errorf("registry embedder %s is not the doc2vec model querctrain wrote", first.Name())
	}
	return svc, d2v, nil
}

// distinct returns the first limit distinct strings of texts, in order.
func distinct(texts []string, limit int) []string {
	seen := make(map[string]bool, limit)
	var out []string
	for _, t := range texts {
		if !seen[t] {
			seen[t] = true
			if out = append(out, t); len(out) == limit {
				break
			}
		}
	}
	return out
}

// runLadder measures every in-process per-layer metric over in.texts. The
// caller adds the metrics it measured itself with the returned ladder's set.
func runLadder(rec *recorder, in ladderInput) (*ladder, error) {
	if len(in.texts) == 0 {
		return nil, fmt.Errorf("ladder: no input texts")
	}
	svc, emb, err := inProcess(in)
	if err != nil {
		return nil, err
	}
	l := &ladder{rec: rec, m: make(map[string]metric)}
	l.textPlane(svc, emb, in)
	l.kernels(emb.Dim())
	l.cachePlane(emb.Name(), in.texts)
	l.qworkerPlane(svc, in)
	l.obsPlane()
	l.driftPlane(svc, in)
	if err := l.lstmStep(in.corpus); err != nil {
		return nil, err
	}
	if err := l.schedPlane(in.corpus); err != nil {
		return nil, err
	}
	return l, nil
}

// textPlane walks the miss path one layer at a time for each distinct text:
// tokenize, vocabulary encode, infer, cache put, label ×3, training ingest.
func (l *ladder) textPlane(svc *core.Service, emb *core.Doc2VecEmbedder, in ladderInput) {
	texts := distinct(in.texts, ladderEmbeds)
	d2v := emb.Model
	clfs := svc.Worker(appName).Classifiers()
	cache := core.NewVectorCache(0, 0)
	tm := core.NewTrainingModule()

	toks := make([][]string, len(texts))
	vecs := make([]vec.Vector, len(texts))
	var ids []int
	var nTok, nOOV int
	for i, sql := range texts {
		root := l.rec.begin("ladder.miss_path", -1, i)
		step := func(name string, fn func()) {
			id := l.rec.begin(name, root, i)
			fn()
			l.rec.end(id, 1)
		}
		step("sqllex.tokenize", func() { toks[i] = core.TokenizeForEmbedding(sql) })
		step("vocab.encode", func() { ids = d2v.Vocab.EncodeInto(ids[:0], toks[i]) })
		step("doc2vec.infer", func() { vecs[i] = emb.EmbedTokens(toks[i]) })
		step("cache.put", func() { cache.Put(emb.Name(), sql, vecs[i]) })
		q := &core.LabeledQuery{SQL: sql, App: appName}
		for _, c := range clfs {
			step("label.vector", func() { c.LabelVector(q, vecs[i]) })
		}
		step("training.ingest", func() { tm.Ingest(q.Clone()) })
		l.rec.end(root, 1)
		nTok += len(ids)
		for _, id := range ids {
			if id == vocab.UNK {
				nOOV++
			}
		}
	}
	l.set("sqllex.tokenize_us", l.rec.meanNs("sqllex.tokenize")/1e3)
	l.set("sqllex.tokens_per_query", float64(nTok)/float64(len(texts)))
	l.set("vocab.encode_us", l.rec.meanNs("vocab.encode")/1e3)
	l.set("vocab.oov_share", float64(nOOV)/float64(max(nTok, 1)))
	l.set("doc2vec.infer_us", l.rec.meanNs("doc2vec.infer")/1e3)
	l.set("label.vector_us", l.rec.meanNs("label.vector")/1e3)

	few := min(len(texts), 200)
	l.set("sqllex.tokenize_allocs", allocsPer(few, func(i int) { core.TokenizeForEmbedding(texts[i]) }))
	l.set("doc2vec.infer_allocs", allocsPer(few, func(i int) { emb.EmbedTokens(toks[i]) }))
	q := &core.LabeledQuery{SQL: texts[0], App: appName, Labels: map[string]string{}}
	l.set("label.allocs", allocsPer(few, func(i int) { clfs[0].LabelVector(q, vecs[i]) }))

	few = min(len(texts), 512)
	id := l.rec.begin("doc2vec.infer_batch", -1, -1)
	emb.EmbedTokensBatch(toks[:few])
	l.rec.end(id, few)
	l.set("doc2vec.infer_batch_us_per_doc", l.rec.meanNs("doc2vec.infer_batch")/1e3)

	// Ingest is ns-scale, so the metric comes from batched spans; the
	// per-call spans above only place it in the request tree.
	clones := make([]*core.LabeledQuery, 8*nsBatch)
	for i := range clones {
		clones[i] = &core.LabeledQuery{SQL: texts[i%len(texts)], App: appName}
	}
	l.set("training.ingest_ns", l.batched("training.ingest_batched", len(clones), func(i int) { tm.Ingest(clones[i]) }))
}

// kernels times the two vector kernels inference is built from.
func (l *ladder) kernels(dim int) {
	a, b := vec.New(dim), vec.New(dim)
	for i := range a {
		a[i], b[i] = float64(i)*0.01, 1-float64(i)*0.01
	}
	var sink float64
	l.set("vec.dot_ns", l.batched("vec.dot", 400*nsBatch, func(int) { sink += vec.Dot(a, b) }))
	l.set("vec.addscaled_ns", l.batched("vec.addscaled", 400*nsBatch, func(int) { a.AddScaled(1e-9, b) }))
	_ = sink
}

// cachePlane times the vector cache alone: hits, misses, evicting puts, and
// hits while a second goroutine hammers the same shards.
func (l *ladder) cachePlane(embedder string, inputs []string) {
	texts := distinct(inputs, 1024)
	v := vec.New(32)
	// Capacity equal to the key count: the cache is full once filled, so
	// every Put of a new key evicts.
	c := core.NewVectorCache(len(texts), 0)
	for _, t := range texts {
		c.Put(embedder, t, v)
	}
	n := 40 * nsBatch
	l.set("cache.get_hit_ns", l.batched("cache.get_hit", n, func(i int) { c.Get(embedder, texts[i%len(texts)]) }))
	l.set("cache.get_miss_ns", l.batched("cache.get_miss", n, func(i int) { c.Get("absent", texts[i%len(texts)]) }))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.Get(embedder, texts[i%len(texts)])
			}
		}
	}()
	l.set("cache.contended_get_ns", l.batched("cache.contended_get", n, func(i int) { c.Get(embedder, texts[i%len(texts)]) }))
	close(stop)
	wg.Wait()

	fresh := make([]string, n)
	for i := range fresh {
		fresh[i] = salt(texts[i%len(texts)], i)
	}
	l.set("cache.put_evict_ns", l.batched("cache.put_evict", n, func(i int) { c.Put(embedder, fresh[i], v) }))
}

// qworkerPlane times Qworker.Process on the miss and the hit path and
// ProcessBatch on the workload's own batches, each against a fresh cache.
func (l *ladder) qworkerPlane(svc *core.Service, in ladderInput) {
	w := svc.Worker(appName)
	texts := distinct(in.texts, ladderEmbeds)
	process := func(name string) float64 {
		return l.each(name, len(texts), func(i int) { w.Process(&core.LabeledQuery{SQL: texts[i]}) })
	}
	svc.SetVectorCache(core.NewVectorCache(0, 0))
	l.set("qworker.process_miss_us", process("qworker.process_miss")/1e3)
	traced := process("qworker.process_hit")
	l.set("qworker.process_hit_us", traced/1e3)
	l.set("qworker.process_hit_allocs", allocsPer(len(texts), func(i int) { w.Process(&core.LabeledQuery{SQL: texts[i]}) }))

	// The same hit-path calls without a span each: what recording costs.
	const rounds = 4
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, sql := range texts {
			w.Process(&core.LabeledQuery{SQL: sql})
		}
	}
	untraced := float64(time.Since(t0)) / float64(rounds*len(texts))
	l.set("trace.overhead_ratio", traced/untraced)

	// ProcessBatch over the first inputs in send order, in requests of the
	// workload's size (streams are replayed as batchSize-text batches), on a
	// cache one untimed pass over the same inputs has filled: the daemon's
	// batch workload runs warm too.
	size := in.perReq
	if size == 1 {
		size = batchSize
	}
	inputs := in.texts[:min(len(in.texts), 8*size)]
	batch := func(texts []string) []*core.LabeledQuery {
		qs := make([]*core.LabeledQuery, len(texts))
		for i, sql := range texts {
			qs[i] = &core.LabeledQuery{SQL: sql}
		}
		return qs
	}
	svc.SetVectorCache(core.NewVectorCache(0, 0))
	w.ProcessBatch(batch(inputs), 0)
	var queries, uniq int
	for lo := 0; lo+size <= len(inputs); lo += size {
		qs := batch(inputs[lo : lo+size])
		id := l.rec.begin("qworker.process_batch", -1, lo/size)
		w.ProcessBatch(qs, 0)
		l.rec.end(id, size)
		queries += size
		uniq += len(distinct(inputs[lo:lo+size], size))
	}
	l.set("qworker.batch_us_per_query", l.rec.meanNs("qworker.process_batch")/1e3)
	l.set("qworker.batch_dedup_ratio", 1-float64(uniq)/float64(max(queries, 1)))
}

// obsPlane times the observability primitives every plane records through.
func (l *ladder) obsPlane() {
	n := 400 * nsBatch
	c := obs.NewCounter()
	l.set("obs.counter_inc_ns", l.batched("obs.counter_inc", n, func(int) { c.Inc() }))
	h := obs.NewHistogram()
	l.set("obs.hist_observe_ns", l.batched("obs.hist_observe", n, func(i int) { h.Observe(time.Duration(i) * time.Microsecond) }))
	tr := obs.NewTracer(obs.TracerConfig{SampleRate: 1})
	l.set("obs.trace_begin_settle_ns", l.batched("obs.trace_begin_settle", n/10, func(int) {
		tr.Begin(appName, "select 1").Settle(obs.OutcomeAnnotated, nil)
	}))
	a := obs.NewAuditor(io.Discard)
	ev := obs.AuditEvent{App: appName, SQL: "select a, b from t where c = 1", Outcome: "completed", Class: "light", SLAClass: "light", Backend: "b1", LatencyMS: 1.5, Attempts: 1}
	l.set("obs.audit_emit_ns", l.batched("obs.audit_emit", n/10, func(int) { a.Emit(&ev) }))
}

// driftPlane times the drift plane's two periodic operations on a 10k-query
// sample, with a threshold no score can reach so nothing retrains.
func (l *ladder) driftPlane(svc *core.Service, in ladderInput) {
	w := svc.Worker(appName)
	ctl := svc.EnableDriftControl(core.ControllerConfig{Threshold: 1e9})
	texts := distinct(in.texts, 256)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			w.Process(&core.LabeledQuery{SQL: texts[i%len(texts)]})
		}
	}
	feed(2000)
	ctl.Tick() // baseline
	feed(10000)
	id := l.rec.begin("drift.take_sample", -1, -1)
	w.TakeDriftSample()
	l.rec.end(id, 1)
	feed(10000)
	id = l.rec.begin("drift.tick", -1, -1)
	ctl.Tick()
	l.rec.end(id, 1)
	w.SetDriftSampling(false)
	l.set("drift.take_sample_us", l.rec.meanNs("drift.take_sample")/1e3)
	l.set("drift.tick_ms", l.rec.meanNs("drift.tick")/1e6)
}

// lstmStep times the LSTM encoder, which no workload deploys: a small model
// trained here on the corpus's first queries, so a later LSTM workload has a
// baseline.
func (l *ladder) lstmStep(corpus []snowgen.Query) error {
	docs := make([][]string, min(len(corpus), 300))
	for i := range docs {
		docs[i] = core.TokenizeForEmbedding(corpus[i].SQL)
	}
	cfg := lstm.DefaultConfig()
	cfg.HiddenDim, cfg.Epochs, cfg.SampledSoftmax = 32, 1, 16
	m, err := lstm.Train(docs, cfg)
	if err != nil {
		return fmt.Errorf("ladder: train lstm: %w", err)
	}
	l.set("lstm.encode_us", l.each("lstm.encode", len(docs), func(i int) { m.Encode(docs[i]) })/1e3)
	return nil
}

// schedPlane drives the dispatcher with one plane armed at a time, bare,
// fully armed, and paced, and reports each plane's throughput as a share of
// the bare dispatcher's.
func (l *ladder) schedPlane(corpus []snowgen.Query) error {
	const n = 150000
	pool := labeledPool(corpus, dispatchPool)
	qps := func(p planes) (float64, error) {
		rig, err := newDispatchRig(p, n)
		if err != nil {
			return 0, err
		}
		elapsed := rig.drive(pool, n, 0, false)
		return float64(n) / elapsed.Seconds(), rig.close()
	}
	bare, err := qps(planes{})
	if err != nil {
		return err
	}
	l.set("sched.bare_qps", bare)
	for name, p := range map[string]planes{
		"sched.tax_retry":    {retry: true},
		"sched.tax_breaker":  {breaker: true},
		"sched.tax_memory":   {memory: true},
		"sched.tax_observed": {observed: true},
	} {
		v, err := qps(p)
		if err != nil {
			return err
		}
		l.set(name, v/bare)
	}

	// Fully armed, with every Enqueue timed and the dispatcher's own
	// Submitted/Started/Finished stamps turned into spans.
	rig, err := newDispatchRig(allPlanes, n)
	if err != nil {
		return err
	}
	var mallocs runtime.MemStats
	runtime.ReadMemStats(&mallocs)
	before := mallocs.Mallocs
	elapsed := rig.drive(pool, n, 0, true)
	runtime.ReadMemStats(&mallocs)
	base := l.rec.now() - int64(time.Since(rig.start))
	if err := rig.close(); err != nil {
		return err
	}
	l.set("sched.armed_qps", float64(n)/elapsed.Seconds())
	l.set("sched.tax_armed", float64(n)/elapsed.Seconds()/bare)
	l.set("sched.allocs_per_query", float64(mallocs.Mallocs-before)/float64(n))
	// The armed dispatcher's registry (scheduler, per-class histograms, audit
	// and tracer series) is what a scrape of an armed quercd renders.
	l.set("obs.writeprom_us", l.each("obs.writeprom", 200, func(int) {
		_ = rig.metrics.WriteProm(io.Discard) // writes to io.Discard cannot fail
	})/1e3)
	var enq int64
	for _, ns := range rig.enqNs {
		enq += int64(ns)
	}
	l.set("sched.enqueue_ns", float64(enq)/float64(len(rig.enqNs)))
	var wait, exec []float64
	for i, s := range rig.taken() {
		root := len(l.rec.spans)
		l.rec.add(span{Name: "sched.task", Start: base + s.submitted, End: base + s.finished, Parent: -1, Req: i, N: 1})
		l.rec.add(span{Name: "sched.queue_wait", Start: base + s.submitted, End: base + s.started, Parent: root, Req: i, N: 1})
		l.rec.add(span{Name: "sched.exec", Start: base + s.started, End: base + s.finished, Parent: root, Req: i, N: 1})
		wait = append(wait, float64(s.started-s.submitted)/1e3)
		exec = append(exec, float64(s.finished-s.started)/1e3)
	}
	wait, exec = sortedCopy(wait), sortedCopy(exec)
	l.set("sched.queue_wait_p50_us", percentile(wait, 0.50))
	l.set("sched.queue_wait_p99_us", percentile(wait, 0.99))
	l.set("sched.exec_p50_us", percentile(exec, 0.50))

	// Paced at a fixed 20k/s, far below saturation: Submitted→Finished here
	// is dominated by goroutine wake-ups, which is why it is not an
	// end-to-end metric.
	const pacedN = 30000
	rig, err = newDispatchRig(allPlanes, pacedN)
	if err != nil {
		return err
	}
	rig.drive(pool, pacedN, 20000, false)
	if err := rig.close(); err != nil {
		return err
	}
	var lat []float64
	for _, s := range rig.taken() {
		lat = append(lat, float64(s.finished-s.submitted)/1e3)
	}
	lat = sortedCopy(lat)
	l.set("sched.paced_p50_us", percentile(lat, 0.50))
	l.set("sched.paced_p99_us", percentile(lat, 0.99))
	return nil
}
