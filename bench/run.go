package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// spec is one workload's traffic shape (BENCHMARK.json and README.md say why
// each workload exists). Counts are derived from the run's
// --seconds so that a run measures for about that long, but they are fixed
// counts, not deadlines: memory and CPU per query then compare across
// commits, however fast the commit is.
type spec struct {
	name string
	// kind selects the request stream: "unique", "repeat", "batch", or
	// "dispatch" (in-process, no daemon).
	kind string
	// openRate is the open-loop phase's fixed request rate, about a third of
	// the saturation rate measured on the 2-core reference box.
	openRate float64
	// closedRate sizes the closed-loop phase: it sends closedRate × its
	// share of --seconds requests (queries for "dispatch"), back to back.
	closedRate float64
	// warm is the number of warm-up requests each set-up ends with.
	warm int
}

var specs = []spec{
	{
		name: "stream_unique", kind: "unique", openRate: 1000, closedRate: 2800, warm: 1500,
	},
	{
		name: "stream_repeat", kind: "repeat", openRate: 2500, closedRate: 6500, warm: poolSize + 1000,
	},
	{
		name: "batch_repeat", kind: "batch", openRate: 70, closedRate: 180, warm: poolSize/batchSize + 1 + 56,
	},
	{
		name: "dispatch_armed", kind: "dispatch", closedRate: 170000,
	},
}

// Shares of --seconds: socket workloads spend openShare in the open loop and
// the rest in the closed loop; dispatch_armed is all closed loop.
const openShare = 0.375

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. The JSON form is the
// benchmark contract's result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string // why Correct is false
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEndUnits names every end-to-end metric an untraced run reports, with
// its unit; BENCHMARK.json's end_to_end list is checked against it.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"throughput_qps":   "queries/s",
	"cpu_us_per_query": "us",
	"lat_p50_us":       "us",
	"lat_p90_us":       "us",
	"peak_rss_mb":      "MB",
	"account_acc":      "ratio",
}

// set reports one end-to-end metric.
func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
}

// sliceSeconds is the nominal length of one closed-loop slice.
const sliceSeconds = 0.5

// traceDir is where the traced run leaves its span files.
func traceDir(e *env) string { return filepath.Join(e.root, "bench", "out") }

// writeTrace dumps rec's spans for one workload and says where.
func writeTrace(e *env, rec *recorder, workload string, seed int64) error {
	path, err := rec.write(traceDir(e), workload, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d spans)\n", path, len(rec.spans))
	return nil
}
