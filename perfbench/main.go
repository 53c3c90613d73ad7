// Command perfbench is manirank's benchmark. It runs one named workload
// against the code of the checkout it was built from and prints, as the last
// line of standard output, one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it holds
// the run's metadata (machine, Go version, commit, seed, phases).
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
//
// workloads.go says what each workload runs and why; LAYERS.md says which
// end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of manirank sees, printed with --trace 0.
// The serving costs are in CPU time: on a shared machine a neighbour moved
// wall-clock capacity by 40% and open-loop p99 by 2x between runs of the same
// code, while the CPU time each answer costs moved by a few percent. The
// wall-clock figures are still measured and printed in the metadata line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"cpu_p50_ms", "ms"},
	{"cpu_p99_ms", "ms"},
	{"ok_frac", "ratio"},
	{"pd_loss", "ratio"},
	{"rss_peak_mib", "MiB"},
}

// perLayer are the single-layer metrics, printed with --trace 1. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"service.decode_us", "us"},
	{"service.digest_us", "us"},
	{"service.hit_ms", "ms"},
	{"service.miss_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.rejected", "count"},
	{"cache.result_hit_rate", "ratio"},
	{"cache.result_evictions", "count"},
	{"cache.matrix_hit_rate", "ratio"},
	{"cache.matrix_evictions", "count"},
	{"cache.matrix_builds", "count"},
	{"cache.coalesced", "count"},
	{"ranking.build_ms", "ms"},
	{"ranking.patch_us", "us"},
	{"manirank.solve_ms", "ms"},
	{"manirank.warm_solve_ms", "ms"},
	{"kemeny.incumbent_ms", "ms"},
	{"core.repair_ms", "ms"},
	{"kemeny.descent_ms", "ms"},
	{"manirank.unattributed_ms", "ms"},
	{"fairness.audit_us", "us"},
	{"fleet.peer_hit_rate", "ratio"},
	{"fleet.peer_errors", "count"},
	{"fleet.builds_per_profile", "ratio"},
	{"fleet.peer_get_ms", "ms"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.heap_peak_mib", "MiB"},
	{"proc.cpu_ms_per_op", "ms"},
	{"gen.open.sent", "count"},
	{"gen.open.ok", "count"},
	{"gen.open.failed", "count"},
	{"gen.open.late_ms", "ms"},
	{"gen.open.p50_ms", "ms"},
	{"gen.open.p99_ms", "ms"},
	{"gen.closed.sent", "count"},
	{"gen.closed.ok", "count"},
	{"gen.closed.failed", "count"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload hands back for printing.
type outcome struct {
	phases   []phaseStats // every timed phase, in order
	problems []string     // failed checks that are not per-request answers
	e2e      map[string]float64
	layer    map[string]float64
	meta     map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{}}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 30, "seconds the timed phases last")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seconds > 0, --trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, meta := report(rc, *name, out)
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *name, p)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing metadata: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	return 0
}

// report turns a workload's outcome into the result line and its metadata.
func report(rc runConfig, name string, out *outcome) (result, map[string]any) {
	res := result{Metrics: map[string]metric{}}
	for _, p := range out.phases {
		res.Attempted += p.Sent
		res.Failed += p.Failed
	}
	defs, values := endToEnd, out.e2e
	if rc.trace {
		defs, values = perLayer, out.layer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !rc.trace {
			// cpu_p99_ms is left out below one block of samples; every
			// other end-to-end metric must be there.
			if d.name != "cpu_p99_ms" {
				out.problem("metric %s was not measured", d.name)
			}
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problem("metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0 && len(out.problems) == 0
	if res.Attempted == 0 {
		res.Attempted = 1 // the result format wants at least one; Correct is false
		res.Failed = 1
	}
	meta := map[string]any{
		"workload":   name,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"trace":      rc.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"phases":     out.phases,
		"problems":   out.problems,
	}
	for k, v := range out.meta {
		meta[k] = v
	}
	return res, meta
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// medianSetup runs setup reps times and returns the median CPU time and the
// median wall time of a set-up, in seconds. Before each set-up, untimed,
// release drops what the previous one built (if any) and a collection runs,
// so every set-up starts from the same heap and neither its time nor the
// peak RSS depends on when the collector last ran. setup_s is the CPU time:
// on a shared machine the median wall time moved by 30% between runs.
func medianSetup(reps int, release func(), setup func() error) (cpuS, wallS float64, err error) {
	cpu := make([]float64, reps)
	wall := make([]float64, reps)
	for i := range cpu {
		release()
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		if err := setup(); err != nil {
			return 0, 0, err
		}
		cpu[i], wall[i] = (cpuTime() - c0).Seconds(), time.Since(t0).Seconds()
	}
	return quantile(cpu, 0.5), quantile(wall, 0.5), nil
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// procSnap is a point-in-time reading of this process's CPU time and GC
// pauses.
type procSnap struct {
	cpu     time.Duration
	gcPause time.Duration
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{cpu: cpuTime(), gcPause: time.Duration(ms.PauseTotalNs)}
}

// cpuTime is the user and system CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMiB is the process's peak resident set so far.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	// Linux reports Maxrss in KiB.
	return float64(ru.Maxrss) / 1024
}

// procLayer fills the proc.* per-layer metrics for the span between two
// snapshots in which ops requests were answered.
func procLayer(o *outcome, before, after procSnap, ops int, heapPeakMiB float64) {
	o.layer["proc.gc_pause_ms"] = msOf(after.gcPause - before.gcPause)
	o.layer["proc.heap_peak_mib"] = heapPeakMiB
	if ops > 0 {
		o.layer["proc.cpu_ms_per_op"] = msOf(after.cpu-before.cpu) / float64(ops)
	}
}

// genLayer fills the gen.* per-layer metrics from the traced phases.
func genLayer(o *outcome, closed, open *phaseStats) {
	if closed != nil {
		o.layer["gen.closed.sent"] = float64(closed.Sent)
		o.layer["gen.closed.ok"] = float64(closed.OK)
		o.layer["gen.closed.failed"] = float64(closed.Failed)
	}
	if open != nil {
		o.layer["gen.open.sent"] = float64(open.Sent)
		o.layer["gen.open.ok"] = float64(open.OK)
		o.layer["gen.open.failed"] = float64(open.Failed)
		o.layer["gen.open.late_ms"] = open.LateP99
		o.layer["gen.open.p50_ms"], _ = blockQuantile(open.latMS, 0.5)
		if v, ok := p99(open.latMS); ok {
			o.layer["gen.open.p99_ms"] = v
		}
	}
}

// maxLateMS is how far behind its schedule (p99) the open-loop dispatcher may
// run before the run is reported invalid.
const maxLateMS = 50

func checkSchedule(o *outcome, open *phaseStats) {
	if open.LateP99 > maxLateMS {
		o.problem("generator fell behind its schedule in %s: p99 lateness %.1f ms > %d ms",
			open.Name, open.LateP99, maxLateMS)
	}
}

// overheadFrac is how much slower the traced half ran than the untraced one.
func overheadFrac(untracedP50, tracedP50 float64) float64 {
	if untracedP50 <= 0 {
		return 0
	}
	return (tracedP50 - untracedP50) / untracedP50
}
