// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed wall-clock window, checks every
// output the program produced, prints each metric by name with its
// unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds this command and the
// daemon, then runs it):
//
//	bash perfbench/run.sh --workload cold-het --seed 1 --seconds 50 --trace 0
//
// Workloads (see README.md for why each exists and what it predicts):
//
//	cold-het      store-less heteropar.Parallelize calls, one at a time
//	daemon-mixed  open-loop Poisson traffic against a heteropard child
//	dse-widen     a DSE sweep of N points, then the same engine at 2N
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// run that times each layer from outside, around the public functions
// of the packages it calls, and reports the per-layer metrics. No
// tracing is added inside the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's counts and metrics. failed counts every
// operation that did not complete successfully (errors, non-200
// responses, transport failures, failed output checks); wrong counts
// only the outputs that came back and failed a check, which is what
// the result line's "correct" reports.
type report struct {
	attempted, failed, wrong int
	metrics                  map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records one operation that did not complete, with its cause on
// stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
}

// reject records one operation whose output failed a check.
func (r *report) reject(format string, args ...any) {
	r.failed++
	r.wrong++
	fmt.Fprintf(os.Stderr, "perfbench: wrong output: "+format+"\n", args...)
}

// okFrac is the end-to-end success share: operations that completed
// and passed every output check, over those attempted.
func (r *report) okFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// params are one run's parameters, from the command line.
type params struct {
	seed   int64
	window time.Duration
	trace  bool
	// daemonBin is the heteropard executable daemon-mixed supervises.
	daemonBin string
	// dsePoints is dse-widen's N (dsePoints outside tests).
	dsePoints int
}

// perLayer lists every per-layer metric with its unit, as BENCHMARK.json
// does. A traced run reports all of them; a layer the workload does not
// exercise, or cannot observe from outside, reads 0 there. daemon-mixed,
// which BENCHMARK.json does not list, reports its own serve and loadgen
// metrics on top.
var perLayer = []struct{ name, unit string }{
	// cold-het: the facade's steps, timed around each public call.
	{"bench.job_s", "s/job"},
	{"bench.layers_sum_s", "s/job"},
	{"bench.trace_overhead_frac", "1"},
	{"minic.compile_s", "s/job"},
	{"interp.profile_s", "s/job"},
	{"htg.build_s", "s/job"},
	{"htg.edges_dropped", "count/job"},
	{"core.parallelize_s", "s/job"},
	{"analysis.audit_s", "s/job"},
	{"taskspec.build_s", "s/job"},
	{"mpsoc.simulate_s", "s/job"},
	{"serve.encode_s", "s/job"},
	// cold-het from core.Stats; dse-widen reports ilp.solve_s from the
	// engine's metrics registry.
	{"ilp.solve_s", "s/job"},
	{"ilp.tasks_solve_s", "s/job"},
	{"ilp.chunks_solve_s", "s/job"},
	{"ilp.timed_out_s", "s/job"},
	{"ilp.timeouts", "count/job"},
	{"ilp.node_cap_hits", "count/job"},
	{"ilp.bb_nodes", "count/job"},
	{"ilp.lp_iters", "count/job"},
	{"ilp.us_per_lp_iter", "us"},
	{"ilp.proved_optimal_frac", "1"},
	{"ilp.warm_hit_frac", "1"},
	// dse-widen.
	{"dse.sweep_s.cold", "s"},
	{"dse.sweep_s.widen", "s"},
	{"dse.cache_hit_frac", "1"},
	{"solstore.region_hit_frac", "1"},
	{"dse.ga_gap_median_pct", "%"},
	{"dse.ga_s", "s/job"},
}

// fillPerLayer adds the per-layer metrics a traced run did not measure,
// at 0.
func fillPerLayer(r *report) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
}

// workloads maps each workload name to its runner. A runner returns an
// error only when the run itself could not be carried out (missing
// binary, unusable environment); failed operations and failed output
// checks are counted in the report instead.
var workloads = map[string]func(params) (*report, error){
	"cold-het":     runColdHet,
	"daemon-mixed": runDaemonMixed,
	"dse-widen":    runDSEWiden,
}

// measure runs one workload; a traced run reports every per-layer
// metric.
func measure(run func(params) (*report, error), p params) (*report, error) {
	rep, err := run(p)
	if err != nil {
		return nil, err
	}
	if p.trace {
		fillPerLayer(rep)
	}
	return rep, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: cold-het, daemon-mixed or dse-widen")
		seed     = flag.Int64("seed", 1, "workload seed; equal seeds generate equal inputs")
		seconds  = flag.Int("seconds", 50, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		bin      = flag.String("daemon-bin", ".bench_build/bin/heteropard", "heteropard executable for daemon-mixed")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-het|daemon-mixed|dse-widen --seed n --seconds s --trace 0|1")
		os.Exit(2)
	}
	rep, err := measure(run, params{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		daemonBin: *bin,
		dsePoints: dsePoints,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if rep.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation attempted\n", *workload)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(result{
		Correct:   rep.wrong == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
