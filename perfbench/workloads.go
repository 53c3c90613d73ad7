package main

import (
	"sort"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	run func(runConfig) (*outcome, error)
}

// The workloads. Each serving workload runs its servers in this process on
// loopback and has three phases: a warm-up (counted in setup_s), a
// closed-loop phase that measures what each answer costs in CPU time
// (ops_per_cpu_s, cpu_p50_ms, cpu_p99_ms), and an open-loop Poisson phase at a
// fixed rate that measures wall-clock latency from each request's intended
// send time (reported in the metadata line and as gen.open.* layer metrics).
var workloads = map[string]workload{
	// serve-mix exercises the read path: HTTP decode, digest and encode,
	// both cache tiers and their replacement policies. 120 profiles x 4
	// methods are 480 result keys; the result cache holds a third of them
	// and the matrix tier a third of the 120 matrices, so both tiers evict.
	// The large-n constrained descent barely runs here (n = 60).
	"serve-mix": {run: func(rc runConfig) (*outcome, error) { return runStateless(rc, serveMix) }},
	// serve-fleet is the only workload that runs internal/fleet: three
	// peered replicas, round-robin clients, each node's result cache below
	// a third of the keys, so peer fetches, push-home and owner-routed
	// matrix builds carry the load. No replica is killed: that is a
	// robustness test, not a steady measurement.
	"serve-fleet": {run: func(rc runConfig) (*outcome, error) { return runStateless(rc, serveFleet) }},
	// solve-fair is the solver core at a size where the constrained
	// descent dominates (n = 990), with no HTTP in the way.
	"solve-fair": {run: runSolveFair},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// clientConns is the number of client connections. With one, the CPU time
// the process spends while a request is in flight is that request's own
// cost, and the benchmark leaves a CPU of a 2-CPU machine to the servers'
// background work. With one per CPU, the closed loop's wall-clock capacity
// moved by 40% between runs on a shared machine.
const clientConns = 1

// closedShare is the part of --seconds given to the closed-loop phase; the
// open-loop phase gets the rest.
const closedShare = 0.6

func phaseLengths(seconds float64) (closed, open time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	closed = time.Duration(closedShare * float64(total))
	return closed, total - closed
}

// The open-loop rates are absolute, fixed here, and set to about a quarter
// of the wall-clock capacity of one connection on a 2-CPU machine at the
// commit that introduced the benchmark, well below the knee. At --seconds 30
// each gives at least one block of 1000 open-loop samples (see
// blockQuantile) even in the traced half of a traced run, so the open-loop
// p99 is defined.
var (
	serveMix = statelessSpec{
		name:      "serve-mix",
		nodes:     1,
		profiles:  120,
		zipfS:     1.2,
		methods:   []string{"borda", "copeland", "schulze", "fair-kemeny"},
		cacheSize: 160,
		precCells: 40 * serveN * serveN,
		rate:      220,
		warmup:    1000,
	}
	serveFleet = statelessSpec{
		name:      "serve-fleet",
		nodes:     3,
		profiles:  120,
		zipfS:     1.2,
		methods:   []string{"fair-kemeny"},
		cacheSize: 30,
		rate:      180,
		warmup:    600,
	}
)
