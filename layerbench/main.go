// Command layerbench is the repository's benchmark: paramra measured end to
// end and layer by layer on three workloads.
//
//	corpus-default   the 24 corpus systems through paramra.Parse and
//	                 paramra.Verify with the raverify defaults (prepass on)
//	corpus-fixpoint  the same with the prepass off: the fixpoint does the work
//	serve-mix        an in-process raserved driven over HTTP with cache
//	                 reads, cache writes, confirmations and a known slow input
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash layerbench/run.sh --workload corpus-default --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json. With
// --trace 1 it also runs every input through the benchmark's own
// composition of the layer calls (layers.go), holds it to paramra.Verify,
// and prints the per-layer metrics. The last line of standard output is the
// result; a record with machine metadata, exact work counts and further
// figures (wall times, open-loop latency percentiles) goes to
// .bench_build/results/. Every verdict is checked against a reference: the
// corpus's hand-written verdicts, and for generated systems the Datalog
// backend (or, without an env program, the one concrete instance, or the
// fixpoint with the prepass off).
//
// The end-to-end metrics, on a corpus workload (one caller, entries in a
// seed-shuffled order, each verification from a collected heap):
//
//	pass_cpu_x     median CPU time, all threads, of a pass over the corpus,
//	               counted from parse to verdict of each entry
//	verdict_cpu_x  geometric mean of the entries' median CPU times from
//	               source text to verdict
//	alloc_mb       heap bytes allocated per pass
//	peak_rss_mb    median over passes of the pass's peak RSS
//
// and on serve-mix (see serve.go for the phases), over the closed loop's
// passes of 1000 mix requests sent back to back on one connection:
//
//	pass_cpu_x     median CPU time, client and server, of a pass
//	verdict_cpu_x  geometric mean of the per-item median CPU times of a
//	               request, an item being a read or a confirmation of one
//	               corpus entry, or any write
//	alloc_mb       heap bytes allocated per pass
//	peak_rss_mb    median over passes of the pass's peak RSS
//
// The *_x metrics are CPU times as multiples of the run's calibration time
// (calib.go). On every workload setup_s is the median CPU time of several
// set-ups. Times are CPU times because the host's other guests take a
// varying share of the cores (steal), which CPU time leaves out: on a
// 2-vCPU VM, a serve-mix closed-loop pass took 0.63 s of wall time in one
// run and 1.04 s in the next, while its CPU time moved by under 10%. Wall
// times (per pass, per entry, and the open-loop latencies of serve-mix) and
// the raw CPU times are in each run's record. A failure (an error, an
// incomplete result, a non-2xx answer, an exceeded budget) counts in the
// result's failed; a wrong verdict also makes the run incorrect.
//
// Three more subcommands work on the records:
//
//	layerbench compare <base record or dir> <new record or dir>
//	layerbench counts <record or dir>...   (prints counts.json)
//	layerbench selftest
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

const (
	// workers is the Parallelism of every verification, and the number of
	// client connections of serve-mix's open loop: the load is sized for
	// two cores.
	workers = 2
	// setup_s is the median of this many set-ups: the corpus workloads' is
	// under a millisecond, so it takes many to steady; serve-mix's takes
	// seconds.
	corpusSetups = 101
	serveSetups  = 5
)

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// lists (names, units, bounds) it must print and compare.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		var code int
		code, err = compareMain(os.Args[2:])
		if err == nil {
			os.Exit(code)
		}
	case len(os.Args) > 1 && os.Args[1] == "selftest":
		var spec *benchSpec
		if spec, err = loadSpec("BENCHMARK.json"); err == nil {
			err = selftest(spec, os.Stdout)
		}
	case len(os.Args) > 1 && os.Args[1] == "counts":
		err = countsMain(os.Args[2:])
	default:
		var correct bool
		correct, err = runMain(os.Args[1:])
		if err == nil && !correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(2)
	}
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full account of one run, written under .bench_build/results.
type record struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Seconds  float64          `json:"seconds"`
	Trace    bool             `json:"trace"`
	Machine  machine          `json:"machine"`
	Result   result           `json:"result"`
	Counts   map[string]int64 `json:"counts"`
	Changed  []string         `json:"changed_counts,omitempty"`
	Wrong    []string         `json:"wrong,omitempty"`
	Notes    []string         `json:"notes,omitempty"`
}

func runMain(args []string) (bool, error) {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	var (
		cfg     runConfig
		seconds = fs.Int("seconds", 20, "how long one run measures")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return false, errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	cfg.duration = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the repository root: %w", err)
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == cfg.workload
	}
	if !known {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	mach, err := describeMachine()
	if err != nil {
		return false, err
	}

	rep := newReport()
	// A layer the workload does not exercise reports 0.
	for _, m := range spec.PerLayer {
		rep.layer(m.Name, 0)
	}
	if opts, ok := corpusWorkloads[cfg.workload]; ok {
		err = runCorpus(cfg, opts, rep)
	} else if cfg.workload == "serve-mix" {
		err = runServe(cfg, rep)
	} else {
		err = fmt.Errorf("workload %q has no runner", cfg.workload)
	}
	if err != nil {
		return false, err
	}

	res := result{
		Correct:   len(rep.wrong) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	list, values := spec.EndToEnd, rep.e2e
	if cfg.trace {
		list, values = spec.PerLayer, rep.layers
	}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("metric %s was not measured (value %v)", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	changed := compareReference(cfg.workload, rep.counts)
	for _, c := range changed {
		fmt.Fprintln(os.Stderr, "layerbench:", c)
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.duration.Seconds(), Trace: cfg.trace,
		Machine: mach, Result: res, Counts: rep.counts,
		Changed: append(rep.drift, changed...), Wrong: rep.wrong, Notes: rep.notes,
	}
	if err := writeRecord(rec); err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

func writeRecord(rec record) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
