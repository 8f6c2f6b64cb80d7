// Command bench is the Querc benchmark: three socket-level labeling
// workloads driven against a real quercd over loopback, one in-process
// dispatcher workload, and an outside-in ladder that times each layer's
// public functions on the same inputs.
//
// It builds cmd/quercd and cmd/querctrain from the checkout, generates every
// input from internal/snowgen and the -seed (the daemon only ever sees
// generated requests), and prints each metric by name and unit with a
// correctness verdict. BENCHMARK.json at the repository root is the
// contract: workloads, end-to-end metrics with their regression bounds, and
// the per-layer metrics of the traced run. README.md in this directory
// explains every workload and metric.
//
// Usage (from the checkout root; bench/run.sh keeps every build artefact
// inside the checkout):
//
//	bash bench/run.sh -workload stream_unique -seed 1 -seconds 16 -trace 0
//	bash bench/run.sh -all -seed 1            # every workload, end-to-end metrics
//	bash bench/run.sh -all -seed 1 -trace 1   # per-layer metrics, writes bench/out/trace_*.json
//	bash bench/run.sh -check-repeat           # two sets on this commit, compared to the bounds
//	bash bench/run.sh -spread 10              # ten seeds per workload: each metric's spread vs its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	var (
		root        = flag.String("root", "", "checkout root (default: . or .., whichever holds cmd/quercd)")
		workload    = flag.String("workload", "", "workload to run: stream_unique, stream_repeat, batch_repeat or dispatch_armed")
		seed        = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds     = flag.Int("seconds", 0, "how long a run measures (default: run_seconds of BENCHMARK.json)")
		trace       = flag.Int("trace", 0, "1 runs the traced ladder and reports the per-layer metrics instead of the end-to-end ones")
		all         = flag.Bool("all", false, "run every workload, each in its own process")
		checkRepeat = flag.Bool("check-repeat", false, "run two full sets and compare them against BENCHMARK.json's bounds")
		spreadSeeds = flag.Int("spread", 0, "run every workload with seeds 1..n and print each metric's spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	e, err := newEnv(*root)
	if err != nil {
		fatal(nil, err)
	}
	// Every exit path removes the scratch directory and kills any daemon
	// still running, a signal included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fatal(e, fmt.Errorf("received %s", s))
	}()

	contract, err := loadContract(e.root)
	if err != nil {
		fatal(e, err)
	}
	if *seconds <= 0 {
		*seconds = contract.RunSeconds
	}
	switch {
	case *checkRepeat:
		err = checkRepeatRun(e, contract, *seed, *seconds)
	case *spreadSeeds > 0:
		err = spreadRun(e, contract, *spreadSeeds, *seconds)
	case *all:
		_, err = runAll(e, contract, *seed, *seconds, *trace == 1, os.Stdout)
	default:
		err = runOne(e, contract, *workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fatal(e, err)
	}
	e.cleanup()
}

// fatal reports err and exits non-zero after cleaning up.
func fatal(e *env, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	if e != nil {
		e.cleanup()
	}
	os.Exit(1)
}

// runOne runs a single workload in this process and prints the contract's
// result line last. A failed correctness gate is an error.
func runOne(e *env, c *contract, name string, seed int64, seconds int, trace bool) error {
	sp, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", name, c.workloadNames())
	}
	if err := e.build(); err != nil {
		return err
	}
	run := runSocket
	if sp.kind == "dispatch" {
		run = runDispatch
	}
	res, err := run(e, sp, seed, seconds, trace)
	if err != nil {
		return err
	}
	if err := c.checkMetrics(res, trace); err != nil {
		return err
	}
	printMetrics(os.Stderr, name, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed: %v", name, res.problems)
	}
	return nil
}

// printMetrics lists every metric by name and unit, sorted, for people.
func printMetrics(w *os.File, workload string, res *result) {
	names := sortedNames(res.Metrics)
	verdict := "PASS"
	if !res.Correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%s: correctness %s, %d attempted, %d failed\n", workload, verdict, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
