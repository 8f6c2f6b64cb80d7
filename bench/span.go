package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// harness side of the boundary. Times are nanoseconds since the recorder
// started. Parent is the index of the enclosing span (-1 for a root), Req
// the input the span belongs to (-1 when it belongs to none), and N the
// number of calls the span covers (ns-scale operations are timed in batches,
// because one clock read costs more than the call).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	N      int    `json:"n"`
}

// recorder keeps spans and boundary counts in memory until the run ends. It
// is used from one goroutine at a time.
type recorder struct {
	now    func() int64
	spans  []span
	counts map[string]int64
}

func newRecorder() *recorder {
	t0 := time.Now()
	return &recorder{
		now:    func() int64 { return int64(time.Since(t0)) },
		counts: make(map[string]int64),
	}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: req, N: 1, Start: r.now()})
	return len(r.spans) - 1
}

// end closes span id, which covered n calls.
func (r *recorder) end(id, n int) {
	r.spans[id].End = r.now()
	r.spans[id].N = n
	r.counts[r.spans[id].Name] += int64(n)
}

// add records a span timed elsewhere (an HTTP round trip, a dispatcher
// task's own timestamps).
func (r *recorder) add(s span) {
	r.spans = append(r.spans, s)
	r.counts[s.Name] += int64(s.N)
}

// layerTime is one span name's totals.
type layerTime struct {
	Calls   int64 `json:"calls"`
	TotalNs int64 `json:"totalNs"`
	SelfNs  int64 `json:"selfNs"`
}

// selfTimes totals each span name's duration and self time: a span's self
// time is its duration minus the part of its interval its children cover
// (overlapping children are counted once; a child is clipped to its parent).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.Calls += int64(s.N)
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += s.End - s.Start - covered
		out[s.Name] = lt
	}
	return out
}

// meanNs returns the mean duration per call of the named spans.
func (r *recorder) meanNs(name string) float64 {
	var total, calls int64
	for _, s := range r.spans {
		if s.Name == name {
			total += s.End - s.Start
			calls += int64(s.N)
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(total) / float64(calls)
}

// write dumps the spans, boundary counts and per-layer self times to
// <dir>/trace_<workload>.json.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": workload,
		"seed":     seed,
		"counts":   r.counts,
		"layers":   selfTimes(r.spans),
		"spans":    r.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
