// Command experiments regenerates the tables and figures of the MANI-Rank
// paper's evaluation. Each experiment id corresponds to one artifact; see
// DESIGN.md for the per-experiment index.
//
// Usage:
//
//	experiments [-seed N] [-quick] <id>
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
	serveBench := flag.Bool("serve-bench", false, "benchmark the manirankd serving stack instead of an experiment: replay a Zipf-skewed Mallows workload against an in-process server and print a JSON report (BENCH_<n>.json serving section)")
	serveRestart := flag.Bool("serve-restart", false, "benchmark warm-restart recovery instead of an experiment: replay one workload against a cold server, a restarted server over the same -cache-dir, and a cold-restart control (BENCH_7.json restart section)")
	serveChurn := flag.Bool("serve-churn", false, "benchmark streaming sessions instead of an experiment: replay identically seeded edit streams through /v1/session (incremental patches + warm starts) and /v1/aggregate (full rebuilds) across mutation fractions (BENCH_9.json churn section)")
	serveFleet := flag.Bool("serve-fleet", false, "benchmark a rendezvous-sharded fleet instead of an experiment: boot -fleet-nodes in-process replicas peered over loopback, replay one workload against the fleet, a single-node control, and the fleet with one replica killed mid-load (BENCH_10.json fleet section)")
	fleetNodes := flag.Int("fleet-nodes", 3, "serve-fleet: replica count")
	serveRequests := flag.Int("serve-requests", 600, "serve-bench: total requests per skew setting")
	serveClients := flag.Int("serve-clients", 8, "serve-bench: concurrent closed-loop clients")
	serveProfiles := flag.Int("serve-profiles", 50, "serve-bench: distinct request bodies (working-set size)")
	serveCache := flag.Int("serve-cache", 32, "serve-bench: server result-cache capacity (entries); below serve-profiles so eviction is exercised")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [-seed N] [-quick] [-workers N] <%s|all>\n       experiments -serve-bench [-serve-requests N] [-serve-clients N] [-serve-profiles N] [-serve-cache N]\n",
			strings.Join(experiments.ExperimentIDs(), "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *serveBench {
		if err := runServeBench(*seed, *serveRequests, *serveClients, *serveProfiles, *serveCache); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *serveRestart {
		if err := runRestartBench(*seed, *serveRequests, *serveClients, *serveProfiles, *serveCache); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *serveChurn {
		if err := runChurnBench(*seed, *serveRequests, *serveClients, *serveCache); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *serveFleet {
		if err := runFleetBench(*seed, *serveRequests, *serveClients, *serveProfiles, *serveCache, *fleetNodes); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
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
