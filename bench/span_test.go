package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1, N: 1},
		{Name: "tokenize", Start: 10, End: 30, Parent: 0, N: 1},
		{Name: "infer", Start: 25, End: 60, Parent: 0, N: 1},   // overlaps tokenize by 5
		{Name: "label", Start: 90, End: 120, Parent: 0, N: 1},  // runs 20 past its parent
		{Name: "kernel", Start: 30, End: 50, Parent: 2, N: 64}, // grandchild: infer's, not request's
		{Name: "request", Start: 200, End: 260, Parent: -1, N: 1},
	}
	got := selfTimes(spans)
	// request 1: 100 long, children cover [10,60) and [90,100) = 60 -> self 40;
	// request 2: no children -> self 60.
	if r := got["request"]; r.Calls != 2 || r.TotalNs != 160 || r.SelfNs != 100 {
		t.Errorf("request = %+v, want 2 calls, total 160, self 100", r)
	}
	if r := got["infer"]; r.TotalNs != 35 || r.SelfNs != 15 {
		t.Errorf("infer = %+v, want total 35, self 15 (its kernel child covers 20)", r)
	}
	if r := got["kernel"]; r.Calls != 64 || r.SelfNs != 20 {
		t.Errorf("kernel = %+v, want 64 calls, self 20", r)
	}
	if r := got["label"]; r.SelfNs != 30 {
		t.Errorf("label = %+v, want self 30", r)
	}
}

func TestRecorderWithFakeClock(t *testing.T) {
	var now int64
	r := &recorder{now: func() int64 { now += 7; return now }, counts: map[string]int64{}}
	root := r.begin("outer", -1, 3)
	child := r.begin("inner", root, 3)
	r.end(child, 256)
	r.end(root, 1)
	r.add(span{Name: "http.roundtrip", Start: 100, End: 400, Parent: -1, Req: 9, N: 1})
	if r.counts["inner"] != 256 || r.counts["outer"] != 1 || r.counts["http.roundtrip"] != 1 {
		t.Errorf("counts = %v", r.counts)
	}
	if got := r.meanNs("inner"); got != 7.0/256 {
		t.Errorf("meanNs(inner) = %v, want 7/256", got)
	}
	if got := r.meanNs("outer"); got != 21 {
		t.Errorf("meanNs(outer) = %v, want 21", got)
	}
	if got := r.meanNs("absent"); got != 0 {
		t.Errorf("meanNs(absent) = %v, want 0", got)
	}

	dir := t.TempDir()
	path, err := r.write(dir, "unit", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Spans    []span               `json:"spans"`
		Layers   map[string]layerTime `json:"layers"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.Workload != "unit" || file.Seed != 5 || len(file.Spans) != 3 || file.Layers["outer"].SelfNs != 14 {
		t.Errorf("trace file = %+v", file)
	}
}
