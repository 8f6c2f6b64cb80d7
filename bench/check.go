package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// contract is BENCHMARK.json: the workloads, the end-to-end metrics with
// their regression bounds, and the traced run's per-layer metrics.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(root string) (*contract, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func (c *contract) workloadNames() []string {
	names := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		names[i] = w.Name
	}
	return names
}

// checkMetrics verifies that a run reports exactly the metrics BENCHMARK.json
// lists for its mode, each with the listed unit.
func (c *contract) checkMetrics(res *result, trace bool) error {
	defs := c.EndToEnd
	if trace {
		defs = c.PerLayer
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("run does not report %s, which BENCHMARK.json lists", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("%s reported in %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s is %v", d.Name, m.Value)
		}
	}
	return nil
}

// runAll runs every workload of the contract, each in a process of its own
// (so one workload's peak memory and CPU time are not another's), and writes
// one line per workload to out. A workload that fails its gate is an error
// after the others have run.
func runAll(e *env, c *contract, seed int64, seconds int, trace bool, out io.Writer) (map[string]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	results := make(map[string]*result)
	var firstErr error
	for _, name := range c.workloadNames() {
		cmd := exec.Command(self, "-root", e.root, "-workload", name,
			"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", traceArg)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		e.track(cmd.Process)
		runErr := cmd.Wait()
		e.untrack(cmd.Process)
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s printed no result line (%v): %w", name, runErr, err)
		}
		results[name] = &res
		fmt.Fprintf(out, "{\"workload\":%q,\"seed\":%d,\"result\":%s}\n", name, seed, lines[len(lines)-1])
		if runErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, runErr)
		}
	}
	return results, firstErr
}

// checkRepeatRun runs two full sets on the same code and seed and compares
// every end-to-end metric of every workload against its bound: the benchmark
// must agree with itself before it can judge a change. Both sets are kept
// under bench/results/.
func checkRepeatRun(e *env, c *contract, seed int64, seconds int) error {
	dir := filepath.Join(e.root, "bench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sets [2]map[string]*result
	for i, tag := range []string{"a", "b"} {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("repeat_seed%d_%s.jsonl", seed, tag)))
		if err != nil {
			return err
		}
		sets[i], err = runAll(e, c, seed, seconds, false, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	misses := 0
	for _, w := range c.workloadNames() {
		for _, d := range c.EndToEnd {
			a, b := sets[0][w].Metrics[d.Name].Value, sets[1][w].Metrics[d.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			if diff > d.Bound {
				verdict = "MISS"
				misses++
			}
			fmt.Printf("%-15s %-18s a=%-14.4f b=%-14.4f diff=%6.2f%% bound=%5.1f%% %s\n",
				w, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", misses)
	}
	return nil
}

// spreadRun runs every workload once per seed in seeds 1..n, interleaved so
// that a drift of the box falls on all workloads alike, and prints each
// end-to-end metric's median and spread next to its bound. This is the study
// the bounds in BENCHMARK.json are set from: a spread has to stay well under
// the bound for the bound to tell a regression from the box.
func spreadRun(e *env, c *contract, n, seconds int) error {
	values := make(map[string]map[string][]float64) // workload -> metric -> one value per seed
	for seed := 1; seed <= n; seed++ {
		results, err := runAll(e, c, int64(seed), seconds, false, io.Discard)
		if err != nil {
			return err
		}
		for w, res := range results {
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
		}
	}
	over := 0
	for _, w := range c.workloadNames() {
		for _, d := range c.EndToEnd {
			xs := values[w][d.Name]
			sp, verdict := spread(xs), "ok"
			// The driver holds every metric but the set-up time to its bound.
			if sp > d.Bound && d.Name != "setup_s" {
				verdict = "OVER"
				over++
			}
			fmt.Printf("%-15s %-18s median=%-14.4f spread=%6.2f%% bound=%5.1f%% %s\n",
				w, d.Name, median(xs), 100*sp, 100*d.Bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics spread wider over %d seeds than their bound", over, n)
	}
	return nil
}

// spread is the inter-quartile distance of xs as a share of their median,
// the steadiness measure the benchmark's bounds are set against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// sortedNames returns the keys of m in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
