package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRecords reads the records at each path: a record file, or a
// directory of them.
func loadRecords(paths ...string) ([]record, error) {
	var files []string
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, p)
			continue
		}
		m, err := filepath.Glob(filepath.Join(p, "*.json"))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	var out []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no records under %s", strings.Join(paths, ", "))
	}
	return out, nil
}

// verdict is the outcome of comparing a new set of runs against a base.
type verdict struct {
	// Rejected lists every reason the new runs are worse: a wrong answer, a
	// higher failure fraction, or an end-to-end metric worse than its bound.
	Rejected []string
	// Changed lists exact counts that differ between the two sets.
	Changed []string
}

// errProcs refuses a comparison across different core counts.
var errProcs = errors.New("refusing to compare runs with different nproc or GOMAXPROCS")

// compareRecords compares the untraced runs of each workload by the median
// of every end-to-end metric, and the exact counts of runs with equal
// workload and seed.
func compareRecords(spec *benchSpec, base, cand []record) (verdict, error) {
	var v verdict
	for _, r := range append(append([]record(nil), base...), cand...) {
		m0 := base[0].Machine
		if r.Machine.NProc != m0.NProc || r.Machine.GOMAXPROCS != m0.GOMAXPROCS {
			return v, fmt.Errorf("%w: nproc %d/%d, GOMAXPROCS %d/%d", errProcs,
				m0.NProc, r.Machine.NProc, m0.GOMAXPROCS, r.Machine.GOMAXPROCS)
		}
	}
	for _, r := range cand {
		if !r.Result.Correct {
			v.Rejected = append(v.Rejected, fmt.Sprintf("%s seed %d: wrong answers: %s",
				r.Workload, r.Seed, strings.Join(r.Wrong, "; ")))
		}
	}
	group := func(rs []record) map[string][]record {
		g := map[string][]record{}
		for _, r := range rs {
			if !r.Trace {
				g[r.Workload] = append(g[r.Workload], r)
			}
		}
		return g
	}
	gb, gc := group(base), group(cand)
	var names []string
	for w := range gc {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		b, ok := gb[w]
		if !ok {
			continue
		}
		c := gc[w]
		if msg := moreFailures(b, c); msg != "" {
			v.Rejected = append(v.Rejected, fmt.Sprintf("%s fail_frac: %s", w, msg))
		}
		for _, m := range spec.EndToEnd {
			mb, mc := metricMedian(b, m.Name), metricMedian(c, m.Name)
			if mb == 0 {
				continue
			}
			change := (mc - mb) / mb
			worse := change > m.Bound
			if m.Better == "higher" {
				worse = -change > m.Bound
			}
			if worse {
				v.Rejected = append(v.Rejected, fmt.Sprintf("REGRESSION %s %s: base %.4g %s, new %.4g %s (%+.1f%%, bound %.0f%%)",
					w, m.Name, mb, m.Unit, mc, m.Unit, 100*change, 100*m.Bound))
			}
		}
	}
	v.Changed = changedCounts(base, cand)
	return v, nil
}

// moreFailures says how the new runs fail more often than the base runs,
// or returns "". Runs of one workload measure equal lengths over inputs
// drawn the same way, so failures are compared per run rather than per
// attempt, which would move with throughput: the new runs fail more when
// they fail more times per run on average, or when one of them fails more
// times than the worst base run.
func moreFailures(base, cand []record) string {
	worst := func(rs []record) (most int, mean float64) {
		for _, r := range rs {
			most = max(most, r.Result.Failed)
			mean += float64(r.Result.Failed) / float64(len(rs))
		}
		return most, mean
	}
	mb, fb := worst(base)
	mc, fc := worst(cand)
	switch {
	case fc > fb+1e-9:
		return fmt.Sprintf("base %.3g failures per run, new %.3g", fb, fc)
	case mc > mb:
		return fmt.Sprintf("base at most %d failures in a run, new %d", mb, mc)
	}
	return ""
}

func metricMedian(rs []record, name string) float64 {
	var xs []float64
	for _, r := range rs {
		if mv, ok := r.Result.Metrics[name]; ok {
			xs = append(xs, mv.Value)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// changedCounts names every exact count that differs between a base and a
// new run of the same workload and seed.
func changedCounts(base, cand []record) []string {
	type key struct {
		workload string
		seed     int64
	}
	ref := map[key]map[string]int64{}
	for _, r := range base {
		k := key{r.Workload, r.Seed}
		if ref[k] == nil {
			ref[k] = map[string]int64{}
		}
		for n, c := range r.Counts {
			ref[k][n] = c
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, r := range cand {
		for n, c := range r.Counts {
			if want, ok := ref[key{r.Workload, r.Seed}][n]; ok && want != c {
				msg := fmt.Sprintf("changed count %s seed %d %s: base %d, new %d", r.Workload, r.Seed, n, want, c)
				if !seen[msg] {
					seen[msg] = true
					out = append(out, msg)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// compareMain prints the comparison and returns exit code 1 when the new
// runs are rejected.
func compareMain(args []string) (int, error) {
	if len(args) != 2 {
		return 0, errors.New("usage: layerbench compare <base record or dir> <new record or dir>")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	base, err := loadRecords(args[0])
	if err != nil {
		return 0, err
	}
	cand, err := loadRecords(args[1])
	if err != nil {
		return 0, err
	}
	v, err := compareRecords(spec, base, cand)
	if err != nil {
		return 0, err
	}
	printVerdict(os.Stdout, v)
	if len(v.Rejected) > 0 {
		return 1, nil
	}
	return 0, nil
}

func printVerdict(w io.Writer, v verdict) {
	for _, c := range v.Changed {
		fmt.Fprintln(w, c)
	}
	for _, r := range v.Rejected {
		fmt.Fprintln(w, r)
	}
	if len(v.Rejected) == 0 {
		fmt.Fprintln(w, "accepted: no metric worse than its bound, no higher failure fraction")
	}
}

// countsMain prints the exact counts the given records agree on, in the
// format of counts.json; it fails when two records disagree.
func countsMain(args []string) error {
	recs, err := loadRecords(args...)
	if err != nil {
		return err
	}
	out := map[string]map[string]int64{}
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]int64{}
		}
		for k, c := range r.Counts {
			if old, ok := out[r.Workload][k]; ok && old != c {
				return fmt.Errorf("records disagree on %s %s: %d and %d", r.Workload, k, old, c)
			}
			out[r.Workload][k] = c
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// selftest feeds the comparison synthetic records and checks that it
// accepts equal and within-bound results, names the metric and workload of
// a regression, rejects a higher failure fraction and a wrong answer,
// reports a changed count, and refuses records from different core counts.
func selftest(spec *benchSpec, w io.Writer) error {
	mk := func() record {
		r := record{Workload: "corpus-default", Seed: 1,
			Machine: machine{NProc: 2, GOMAXPROCS: 2},
			Result:  result{Correct: true, Attempted: 100, Metrics: map[string]metricValue{}},
			Counts:  map[string]int64{"barrier/macro_states": 7},
		}
		for _, m := range spec.EndToEnd {
			r.Result.Metrics[m.Name] = metricValue{Value: 10, Unit: m.Unit}
		}
		return r
	}
	base := make([]record, 10)
	for i := range base {
		base[i] = mk()
	}
	type tc struct {
		name   string
		edit   func(*record)
		reject string // substring every rejection must carry; "" = accept
		procs  bool
		runs   int // how many of the new runs get the edit; 0 = all
	}
	first := spec.EndToEnd[0]
	for _, m := range spec.EndToEnd {
		if m.Name != "setup_s" {
			first = m
			break
		}
	}
	worse := func(f float64) func(*record) {
		return func(r *record) {
			mv := r.Result.Metrics[first.Name]
			if first.Better == "higher" {
				mv.Value *= 1 - f*first.Bound
			} else {
				mv.Value *= 1 + f*first.Bound
			}
			r.Result.Metrics[first.Name] = mv
		}
	}
	cases := []tc{
		{name: "identical", edit: func(*record) {}},
		{name: "within bound", edit: worse(0.5)},
		{name: "beyond bound", edit: worse(1.5), reject: "REGRESSION corpus-default " + first.Name},
		{name: "higher fail_frac", edit: func(r *record) { r.Result.Failed = 3 }, reject: "fail_frac"},
		{name: "fails in 4 of 10", edit: func(r *record) { r.Result.Failed = 1 }, reject: "fail_frac", runs: 4},
		{name: "wrong answer", edit: func(r *record) { r.Result.Correct = false; r.Wrong = []string{"x"} }, reject: "wrong answers"},
		{name: "other GOMAXPROCS", edit: func(r *record) { r.Machine.GOMAXPROCS = 8 }, procs: true},
	}
	for _, c := range cases {
		var cand []record
		for i := 0; i < len(base); i++ {
			r := mk()
			if c.runs == 0 || i < c.runs {
				c.edit(&r)
			}
			cand = append(cand, r)
		}
		v, err := compareRecords(spec, base, cand)
		switch {
		case c.procs:
			if !errors.Is(err, errProcs) {
				return fmt.Errorf("selftest %s: want a refusal, got %v", c.name, err)
			}
		case err != nil:
			return fmt.Errorf("selftest %s: %w", c.name, err)
		case c.reject == "" && len(v.Rejected) > 0:
			return fmt.Errorf("selftest %s: rejected: %v", c.name, v.Rejected)
		case c.reject != "" && !allContain(v.Rejected, c.reject):
			return fmt.Errorf("selftest %s: want rejections naming %q, got %v", c.name, c.reject, v.Rejected)
		}
		fmt.Fprintf(w, "selftest %-18s ok %v\n", c.name, v.Rejected)
	}
	cand := []record{mk()}
	cand[0].Counts["barrier/macro_states"] = 8
	v, err := compareRecords(spec, base, cand)
	if err != nil || len(v.Rejected) != 0 || len(v.Changed) != 1 || !strings.Contains(v.Changed[0], "barrier/macro_states") {
		return fmt.Errorf("selftest changed count: want it named and not rejected, got %+v, %v", v, err)
	}
	fmt.Fprintf(w, "selftest %-18s ok %v\n", "changed count", v.Changed)
	return nil
}

// allContain reports whether xs is non-empty and every element contains sub.
func allContain(xs []string, sub string) bool {
	for _, x := range xs {
		if !strings.Contains(x, sub) {
			return false
		}
	}
	return len(xs) > 0
}
