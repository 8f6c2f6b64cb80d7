package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// pacer schedules an open loop: request i is due at start + i×interval
// whether or not earlier requests have finished, and latency is counted from
// that due time, so a stall charges every request it delays.
type pacer struct {
	start    time.Time
	interval time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
}

// wait blocks until request i is due and returns the due time, how late the
// send actually starts, and whether the caller had to sleep for it. After a
// sleep the lateness is the generator's own (timer overshoot, a starved
// goroutine); without one the caller was still busy with an earlier request
// when i fell due, and the lateness is backlog the system under test caused.
func (p *pacer) wait(i int) (due time.Time, late time.Duration, slept bool) {
	due = p.start.Add(time.Duration(i) * p.interval)
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
		slept = true
	}
	return due, p.now().Sub(due), slept
}

// sample is one request's outcome; times are nanoseconds since the phase
// started. due equals sent in a closed loop.
type sample struct {
	req             int
	due, sent, done int64
	slept           bool // open loop: the sender slept until due (see pacer.wait)
}

// phase is the outcome of one load phase.
type phase struct {
	samples   []sample
	failed    int   // non-200, transport error, timeout, or malformed response
	queries   int   // texts labeled by successful requests
	accHits   int   // of those, predictions matching the true account
	respBytes int64 // response bytes of successful requests
	firstErr  error
}

// merge adds q's samples and counts to p.
func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.failed += q.failed
	p.queries += q.queries
	p.accHits += q.accHits
	p.respBytes += q.respBytes
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// loader drives one daemon's labeling endpoint with a request stream over a
// fixed set of connections (one worker goroutine per connection).
type loader struct {
	d       *daemon
	reqs    *requests
	conns   int
	classes map[string]map[string]bool // label key -> trained class set
}

// labeledJSON is the part of quercd's labeled-query JSON the gate reads.
type labeledJSON struct {
	Labels map[string]string `json:"labels"`
}

// run sends requests [first, first+n): paced at rate per second when rate is
// positive (open loop), else back to back per connection (closed loop).
//
//querc:allow-race workers only read the loader, the request stream and the pacer; each writes its own phase
func (l *loader) run(first, n int, rate float64) *phase {
	url := l.d.base + "/v1/apps/" + appName + "/queries"
	if l.reqs.batch {
		url += ":batch"
	}
	var next atomic.Int64
	start := time.Now()
	var pace *pacer
	if rate > 0 {
		pace = &pacer{start: start, interval: time.Duration(float64(time.Second) / rate), now: time.Now, sleep: time.Sleep}
	}
	parts := make([]*phase, l.conns)
	var wg sync.WaitGroup
	for w := range parts {
		p := &phase{}
		parts[w] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body, resp bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := sample{req: first + i}
				if pace != nil {
					due, late, slept := pace.wait(i)
					s.due = int64(due.Sub(start))
					s.sent = s.due + int64(late)
					s.slept = slept
				} else {
					s.sent = int64(time.Since(start))
					s.due = s.sent
				}
				l.reqs.body(s.req, &body)
				err := l.send(url, s.req, &body, &resp, p)
				s.done = int64(time.Since(start))
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("request %d: %w", s.req, err)
					}
				}
				p.samples = append(p.samples, s)
			}
		}()
	}
	wg.Wait()
	out := &phase{}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// send posts one request and checks the response: status 200, every text
// answered, all three label keys present with values from the trained class
// sets. Account predictions are scored against ground truth into p.
func (l *loader) send(url string, req int, body, resp *bytes.Buffer, p *phase) error {
	r, err := l.d.client.Post(url, "application/json", bytes.NewReader(body.Bytes()))
	if err != nil {
		return err
	}
	resp.Reset()
	_, err = resp.ReadFrom(r.Body)
	r.Body.Close()
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.StatusCode, bytes.TrimSpace(resp.Bytes()))
	}
	var got []labeledJSON
	if l.reqs.batch {
		var br struct {
			Queries []labeledJSON `json:"queries"`
			Count   int           `json:"count"`
		}
		if err := json.Unmarshal(resp.Bytes(), &br); err != nil {
			return err
		}
		if br.Count != l.reqs.perReq || len(br.Queries) != l.reqs.perReq {
			return fmt.Errorf("batch answered %d/%d of %d texts", br.Count, len(br.Queries), l.reqs.perReq)
		}
		got = br.Queries
	} else {
		got = make([]labeledJSON, 1)
		if err := json.Unmarshal(resp.Bytes(), &got[0]); err != nil {
			return err
		}
	}
	hits := 0
	for k := range got {
		for _, key := range labelKeys {
			if v := got[k].Labels[key]; !l.classes[key][v] {
				return fmt.Errorf("label %s=%q is not a trained class", key, v)
			}
		}
		if got[k].Labels["account"] == l.reqs.truth(req, k) {
			hits++
		}
	}
	p.queries += len(got)
	p.accHits += hits
	p.respBytes += int64(resp.Len())
	return nil
}
