package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"querc/internal/snowgen"
)

// latencyStats summarises an open-loop phase's samples.
type latencyStats struct {
	p50, p90, p99, p999, maxMs float64 // microseconds unless named otherwise
	lateP50, lateP99           float64 // send start vs due time, microseconds
}

// minWindowSamples is the fewest requests a latency window should hold, so a
// window's p99 is not simply its maximum.
const minWindowSamples = 100

// summarise computes the open-loop latency metrics from windows of at least
// one second and minWindowSamples requests: p50 and p90 are medians over
// windows of each window's quantile, p99 the lower quartile over windows of
// each window's p99 (see lowerQuartile); p999 and max are over the whole
// phase. p90 is the highest quantile with ten samples beyond it in every
// window of every workload, which is why it, not p99, is the gated tail.
func summarise(samples []sample, rate float64, phaseNs int64) latencyStats {
	window := int64(max(1, minWindowSamples/rate) * float64(time.Second))
	due := make([]int64, len(samples))
	lat := make([]float64, len(samples))
	late := []float64{0} // the generator's own lateness: sends it slept for
	for i, s := range samples {
		due[i] = s.due
		lat[i] = float64(s.done-s.due) / 1e3
		if s.slept {
			late = append(late, float64(s.sent-s.due)/1e3)
		}
	}
	all := sortedCopy(lat)
	sort.Float64s(late)
	return latencyStats{
		p50:     median(perWindow(due, lat, 0.50, window, phaseNs)),
		p90:     median(perWindow(due, lat, 0.90, window, phaseNs)),
		p99:     lowerQuartile(perWindow(due, lat, 0.99, window, phaseNs)),
		p999:    percentile(all, 0.999),
		maxMs:   all[len(all)-1] / 1e3,
		lateP50: percentile(late, 0.50),
		lateP99: percentile(late, 0.99),
	}
}

// lateLimitUs is the most the load generator's median send lateness may be
// before a run's latencies are declared invalid rather than slow: past it
// the numbers describe the generator's scheduling, not the daemon. It is the
// median, not the p99 (which is reported as loadgen.late_p99_us), because a
// few host stalls of tens of milliseconds land on a few sends of most runs.
const lateLimitUs = 1000

// socketRun is what one socket workload run measured, before any of it is
// judged or turned into metrics.
type socketRun struct {
	setupS        []float64 // speed-scaled seconds per set-up
	open, closed  *phase
	slices        []slice // the closed loop, slice by slice
	before, after cacheCounters
	retained      int
	rssMB         float64
	selfCPU       int64     // harness CPU during the closed loop, microseconds
	scrapes       []float64 // GET /metrics round trips during the closed loop, milliseconds (traced run only)
	stopErr       error     // from the graceful shutdown
	models        string    // registry directory of the measured daemon
}

// runSocket runs one socket workload: set-ups, open loop, closed loop, gate,
// and for the traced run the ladder.
func runSocket(e *env, sp spec, seed int64, seconds int, trace bool) (*result, error) {
	openN := int(sp.openRate * openShare * float64(seconds))
	closedN := int(sp.closedRate * (1 - openShare) * float64(seconds))
	corpus := genCorpus(seed)
	reqs := newRequests(sp.kind, corpus, seed, sp.warm+openN+closedN)
	l := &loader{reqs: reqs, conns: runtime.NumCPU(), classes: classSets(corpus)}
	r, err := measureSocket(e, sp, l, seed, openN, closedN, trace)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.Attempted = len(r.open.samples) + len(r.closed.samples)
	res.Failed = r.open.failed + r.closed.failed
	if r.stopErr != nil {
		res.fail("shutdown: %v", r.stopErr)
	}
	for _, p := range []*phase{r.open, r.closed} {
		if p.firstErr != nil {
			res.fail("%d failed requests, first: %v", p.failed, p.firstErr)
		}
	}
	queries := r.open.queries + r.closed.queries
	acc := float64(r.open.accHits+r.closed.accHits) / float64(max(queries, 1))
	if acc < 0.90 {
		res.fail("account_acc %.4f < 0.90", acc)
	}
	hits := r.after.Hits - r.before.Hits
	hitRatio := float64(hits) / float64(max(hits+r.after.Misses-r.before.Misses, 1))
	switch {
	case sp.kind == "unique" && hitRatio > 0.01:
		res.fail("cache.hit_ratio %.4f > 0.01 on a workload of distinct texts", hitRatio)
	case sp.kind == "repeat" && hitRatio < 0.99:
		res.fail("cache.hit_ratio %.4f < 0.99 on a workload of repeated texts", hitRatio)
	}
	qps, cpuPerQuery, speed := sliceMedians(r.slices)
	if len(r.slices) < 4 || cpuPerQuery <= 0 {
		res.fail("closed loop gave %d slices and %.1f us CPU per query: too short to measure", len(r.slices), cpuPerQuery)
	}
	fmt.Fprintf(os.Stderr, "bench: machine speed %.2f of reference over %d slices\n", speed, len(r.slices))
	lat := summarise(r.open.samples, sp.openRate, int64(float64(openN)/sp.openRate*1e9))
	if lat.lateP50 > lateLimitUs {
		res.fail("load generator ran late (median %.0f us > %d us): latencies invalid, not slow", lat.lateP50, lateLimitUs)
	}

	if !trace {
		res.set("setup_s", median(r.setupS))
		res.set("throughput_qps", qps)
		res.set("cpu_us_per_query", cpuPerQuery)
		res.set("lat_p50_us", lat.p50)
		res.set("lat_p90_us", lat.p90)
		res.set("peak_rss_mb", r.rssMB)
		res.set("account_acc", acc)
		return res, nil
	}

	// Traced run: the in-process ladder over the same inputs and the same
	// registry model, then the daemon-side and load-generator numbers.
	rec := newRecorder()
	for _, p := range []*phase{r.open, r.closed} {
		for _, s := range p.samples {
			rec.add(span{Name: "http.roundtrip", Start: s.sent, End: s.done, Parent: -1, Req: s.req, N: 1})
		}
	}
	lad, err := runLadder(rec, ladderInput{
		corpus: corpus,
		models: r.models,
		texts:  reqs.texts(sp.warm, ladderInputs),
		perReq: reqs.perReq,
	})
	if err != nil {
		return nil, err
	}
	var daemonCPU int64
	for _, s := range r.slices {
		daemonCPU += s.cpuUs
	}
	set, m := lad.set, lad.m
	set("cache.hit_ratio", hitRatio)
	set("cache.evictions", float64(r.after.Evictions-r.before.Evictions))
	set("training.retained", float64(r.retained))
	set("edge.resp_bytes_per_query", float64(r.open.respBytes+r.closed.respBytes)/float64(max(queries, 1)))
	set("edge.scrape_ms", median(r.scrapes))
	set("edge.self_us_single", 0)
	set("edge.self_us_batch_per_query", 0)
	if reqs.batch {
		set("edge.self_us_batch_per_query", lat.p50/float64(reqs.perReq)-m["qworker.batch_us_per_query"].Value)
	} else {
		inProcess := hitRatio*m["qworker.process_hit_us"].Value + (1-hitRatio)*m["qworker.process_miss_us"].Value
		set("edge.self_us_single", lat.p50-inProcess)
	}
	// Ladder times are raw, so the share is taken against raw CPU per query.
	rawCPUPerQuery := float64(daemonCPU) / float64(max(r.closed.queries, 1))
	set("doc2vec.share_of_cpu", (1-hitRatio)*m["doc2vec.infer_us"].Value/rawCPUPerQuery)
	set("loadgen.late_p99_us", lat.lateP99)
	set("loadgen.cpu_share", float64(r.selfCPU)/float64(max(r.selfCPU+daemonCPU, 1)))
	set("lat_p99_us", lat.p99)
	set("lat_p999_us", lat.p999)
	set("lat_max_ms", lat.maxMs)
	set("fail_share", float64(res.Failed)/float64(res.Attempted))
	res.Metrics = m
	return res, writeTrace(e, rec, sp.name, seed)
}

// measureSocket sets the fixture up (three times on fresh daemons, the
// median being setup_s; once for the traced run, which reports no set-up
// time), runs the open and the closed loop against the last daemon, reads
// its counters and shuts it down.
func measureSocket(e *env, sp spec, l *loader, seed int64, openN, closedN int, trace bool) (*socketRun, error) {
	r := &socketRun{}
	setups := 3
	if trace {
		setups = 1
	}
	for k := 0; k < setups; k++ {
		if l.d != nil {
			if err := l.d.stop(); err != nil {
				return nil, err
			}
		}
		speed, t0 := calibrate(), time.Now()
		d, err := startFixture(e, genCorpus(seed), l.conns)
		if err != nil {
			return nil, err
		}
		l.d = d
		if warm := l.run(0, sp.warm, 0); warm.failed > 0 {
			d.kill()
			return nil, fmt.Errorf("warm-up: %d of %d requests failed: %w", warm.failed, sp.warm, warm.firstErr)
		}
		took := time.Since(t0).Seconds()
		r.setupS = append(r.setupS, took*(speed+calibrate())/2)
	}
	d := l.d
	defer d.kill() // no-op after a clean stop
	pid := d.cmd.Process.Pid
	r.models = d.models

	var err error
	if r.before, err = d.cacheStats(); err != nil {
		return nil, err
	}
	r.open = l.run(sp.warm, openN, sp.openRate)

	// Only the traced run perturbs the daemon with scrapes.
	scrapeStop, scrapeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scrapeDone)
		tick := time.NewTicker(time.Second / 2)
		defer tick.Stop()
		for trace {
			select {
			case <-scrapeStop:
				return
			case <-tick.C:
				t0 := time.Now()
				//querc:allow-race daemon.get only uses the concurrency-safe http.Client
				if _, err := d.get("/metrics"); err == nil {
					r.scrapes = append(r.scrapes, float64(time.Since(t0))/1e6)
				}
			}
		}
	}()
	self0 := selfCPUMicros()
	r.closed = &phase{}
	closedStart := time.Now()
	r.slices = measureSlices(closedN, max(int(sp.closedRate*sliceSeconds), 1), func(first, k int) int64 {
		off := int64(time.Since(closedStart))
		p := l.run(sp.warm+openN+first, k, 0)
		for i := range p.samples { // slice-relative times onto the closed loop's clock
			p.samples[i].due += off
			p.samples[i].sent += off
			p.samples[i].done += off
		}
		r.closed.merge(p)
		return int64(p.queries)
	}, func() int64 {
		us, _ := cpuMicros(pid) // a failed read shows as a zero-CPU slice and fails the gate
		return us
	})
	r.selfCPU = selfCPUMicros() - self0
	close(scrapeStop)
	<-scrapeDone

	if r.after, err = d.cacheStats(); err != nil {
		return nil, err
	}
	if r.retained, err = d.retained(); err != nil {
		return nil, err
	}
	if r.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	r.stopErr = d.stop()
	return r, nil
}

// newRequests draws the request stream of a socket workload kind.
func newRequests(kind string, corpus []snowgen.Query, seed int64, n int) *requests {
	switch kind {
	case "unique":
		return newUnique(corpus, seed, n)
	case "repeat":
		return newRepeat(corpus, seed, n, 1)
	default:
		return newRepeat(corpus, seed, n, batchSize)
	}
}

// classSets returns, per label key, the values the fixture trains on.
func classSets(corpus []snowgen.Query) map[string]map[string]bool {
	sets := map[string]map[string]bool{"account": {}, "user": {}, "cluster": {}}
	for _, q := range corpus {
		sets["account"][q.Account] = true
		sets["user"][q.User] = true
		sets["cluster"][q.Cluster] = true
	}
	return sets
}

// cacheCounters is the vector-cache part of GET /v1/stats.
type cacheCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (d *daemon) cacheStats() (cacheCounters, error) {
	var st struct {
		VectorCache cacheCounters `json:"vectorCache"`
	}
	b, err := d.get("/v1/stats")
	if err != nil {
		return cacheCounters{}, err
	}
	err = json.Unmarshal(b, &st)
	return st.VectorCache, err
}

// retained reads the training module's size through the logs endpoint (an
// empty batch ingests nothing and reports the retained count).
func (d *daemon) retained() (int, error) {
	var st struct {
		Retained int `json:"retained"`
	}
	b, err := d.post("/v1/apps/"+appName+"/logs", []byte("[]"))
	if err != nil {
		return 0, err
	}
	err = json.Unmarshal(b, &st)
	return st.Retained, err
}
