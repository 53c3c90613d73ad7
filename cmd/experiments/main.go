// Command experiments regenerates the tables and figures of the MANI-Rank
// paper's evaluation, and nothing else. Each experiment id corresponds to
// one artifact; see DESIGN.md for the per-experiment index. Serving
// performance is measured by the perfbench module, not here.
//
// Usage:
//
//	experiments [-seed N] [-quick] [-workers N] <id>
//
// where <id> is one of table1, fig2, fig3, fig4, fig5, fig6, fig7, table2,
// table3, table4, table5, or all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"manirank/internal/experiments"
	"manirank/internal/ranking"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed (runs are reproducible per seed)")
	quick := flag.Bool("quick", false, "shrink the heaviest workloads for a fast smoke run")
	workers := flag.Int("workers", 0, "worker pool size for independent experiment cells (0 = all CPUs, 1 = sequential; results are identical either way, but per-cell runtimes contend — time with 1; in-cell solver restarts stay sequential to keep timed columns honest)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [-seed N] [-quick] [-workers N] <%s|all>\n",
			strings.Join(experiments.ExperimentIDs(), "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// The flag also governs kernel-level parallelism (precedence-matrix
	// sharding) so -workers 1 is a fully sequential, contention-free run;
	// solver restarts are pinned sequential inside the harness (see
	// experiments.Config.solveOptions).
	ranking.DefaultWorkers = *workers
	cfg := experiments.Config{Seed: *seed, Out: os.Stdout, Quick: *quick, Workers: *workers}
	start := time.Now()
	if err := experiments.Run(flag.Arg(0), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "completed in %v\n", time.Since(start).Round(time.Millisecond))
}
