// Command quercbench regenerates the paper's tables and figures, plus
// runtime experiments over the Qworker pipeline.
//
// Usage:
//
//	quercbench -experiment fig3|fig4|table1|table2|train|drift|sched|chaos|memory|all [-scale small|paper] [-csv dir] [-workers n]
//
// Results print as text tables shaped like the paper's artifacts; -csv also
// writes machine-readable series for plotting; -workers sets the batch
// fan-out of the drift, sched and memory replays. The drift experiment
// replays a workload with a mid-stream tenant-mix shift and reports
// classifier accuracy over time with the drift control loop on vs off,
// including how much of the accuracy lost to the shift the loop recovers.
// The train experiment sweeps the parallel (Hogwild) training plane over
// worker counts, reporting wall-clock speedup and downstream labeling
// accuracy. The sched experiment replays a mixed multi-tenant workload
// through the scheduling plane under the FIFO baseline vs the label-driven
// policy and reports per-class SLA violations, latency percentiles, and
// throughput for both. The chaos experiment replays a workload carrying a
// correlated transient-failure label stream against fault-injecting backends
// (a down window, a brownout, seeded errors and stragglers) with the failure
// plane off vs on, and gates on the conservation ledger balancing and on
// deadlines/retries/hedges/breakers recovering most of the fault-free SLA
// compliance. The memory experiment replays a mixed-size workload through
// slot-only vs memory-aware admission against per-backend working-set
// budgets and reports OOM-class violations and throughput for both.
// Per-layer and end-to-end cost of the labeling service is measured by the
// bench/ harness, not here.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"querc/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quercbench: ")
	var (
		experiment = flag.String("experiment", "all", "fig3, fig4, table1, table2, train, drift, sched, chaos, memory, or all")
		scaleFlag  = flag.String("scale", "small", "small (minutes) or paper (hours)")
		csvDir     = flag.String("csv", "", "directory to write CSV series into (optional)")
		workers    = flag.Int("workers", 8, "batch fan-out for the drift, sched and memory experiments")
	)
	flag.Parse()
	scale := experiments.Scale(*scaleFlag)
	if scale != experiments.ScaleSmall && scale != experiments.ScalePaper {
		log.Fatalf("unknown scale %q", *scaleFlag)
	}

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("=== %s (scale=%s) ===\n", name, scale)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("--- %s done in %s ---\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	var labeling *experiments.LabelingResult
	ensureLabeling := func() error {
		if labeling != nil {
			return nil
		}
		var err error
		labeling, err = experiments.RunLabeling(experiments.DefaultLabelingConfig(scale))
		return err
	}

	switch *experiment {
	case "fig3":
		run("Figure 3", func() error { return runFig3(scale, *csvDir) })
	case "fig4":
		run("Figure 4", func() error { return runFig4(scale, *csvDir) })
	case "table1":
		run("Table 1", func() error {
			if err := ensureLabeling(); err != nil {
				return err
			}
			experiments.WriteTable1(os.Stdout, labeling)
			return nil
		})
	case "table2":
		run("Table 2", func() error {
			if err := ensureLabeling(); err != nil {
				return err
			}
			experiments.WriteTable2(os.Stdout, labeling)
			return nil
		})
	case "train":
		run("Parallel training", func() error { return runTrain(scale) })
	case "drift":
		run("Drift recovery", func() error { return runDrift(scale, *workers, *csvDir) })
	case "sched":
		run("Scheduling plane", func() error { return runSched(scale, *workers, *csvDir) })
	case "chaos":
		run("Failure plane", func() error { return runChaos(scale, *csvDir) })
	case "memory":
		run("Memory plane", func() error { return runMemory(scale, *workers, *csvDir) })
	case "all":
		run("Parallel training", func() error { return runTrain(scale) })
		run("Drift recovery", func() error { return runDrift(scale, *workers, *csvDir) })
		run("Scheduling plane", func() error { return runSched(scale, *workers, *csvDir) })
		run("Failure plane", func() error { return runChaos(scale, *csvDir) })
		run("Memory plane", func() error { return runMemory(scale, *workers, *csvDir) })
		run("Figure 3", func() error { return runFig3(scale, *csvDir) })
		run("Figure 4", func() error { return runFig4(scale, *csvDir) })
		run("Tables 1 & 2", func() error {
			if err := ensureLabeling(); err != nil {
				return err
			}
			experiments.WriteTable1(os.Stdout, labeling)
			fmt.Println()
			experiments.WriteTable2(os.Stdout, labeling)
			return nil
		})
	default:
		log.Fatalf("unknown experiment %q", *experiment)
	}
}

func runFig3(scale experiments.Scale, csvDir string) error {
	res, err := experiments.RunFig3(experiments.DefaultFig3Config(scale))
	if err != nil {
		return err
	}
	experiments.WriteFig3(os.Stdout, res)
	for _, s := range res.Series {
		fmt.Printf("# %-20s %s\n", s.Name, experiments.Sparkline(s.Runtimes))
	}
	if csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvDir, "fig3.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{"budget_s"}
	for _, s := range res.Series {
		header = append(header, s.Name)
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for bi, b := range res.Budgets {
		row := []string{strconv.FormatFloat(b, 'f', 0, 64)}
		for _, s := range res.Series {
			row = append(row, strconv.FormatFloat(s.Runtimes[bi], 'f', 1, 64))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func runFig4(scale experiments.Scale, csvDir string) error {
	res, err := experiments.RunFig4(experiments.DefaultFig4Config(scale))
	if err != nil {
		return err
	}
	experiments.WriteFig4(os.Stdout, res)
	if csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvDir, "fig4.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"query_id", "template", "no_index_s", "with_index_s"}); err != nil {
		return err
	}
	for i := range res.NoIndex {
		if err := w.Write([]string{
			strconv.Itoa(i),
			strconv.Itoa(res.Templates[i]),
			strconv.FormatFloat(res.NoIndex[i], 'f', 3, 64),
			strconv.FormatFloat(res.WithIndexes[i], 'f', 3, 64),
		}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
