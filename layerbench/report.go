package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"paramra"
	"paramra/internal/obs"
)

// report accumulates one run's outcome: the failure accounting, the
// end-to-end and per-layer metrics, and the exact work counts.
type report struct {
	attempted int
	failed    int
	// wrong lists wrong verdicts and parity breaks; any entry makes the run
	// incorrect.
	wrong  []string
	e2e    map[string]float64
	layers map[string]float64
	// counts are exact per-input work counts ("input/count"); drift lists
	// those that changed between repetitions inside the run.
	counts map[string]int64
	drift  []string
	notes  []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, counts: map[string]int64{}}
}

func (r *report) metric(name string, v float64) { r.e2e[name] = v }
func (r *report) layer(name string, v float64)  { r.layers[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) wrongf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.wrong = append(r.wrong, msg)
	fmt.Fprintln(os.Stderr, "layerbench: WRONG:", msg)
}

// checkVerdict counts a failure for an error or an incomplete result, and
// a wrong answer for a complete verdict that contradicts the reference. It
// reports whether the verification succeeded with the right verdict.
func (r *report) checkVerdict(name string, wantUnsafe bool, res paramra.Result, err error) bool {
	switch {
	case err != nil:
		r.failed++
		r.note("failed %s: %v", name, err)
		return false
	case !res.Complete:
		r.failed++
		r.note("failed %s: incomplete result", name)
		return false
	case res.Unsafe != wantUnsafe:
		r.failed++
		r.wrongf("%s: verdict unsafe=%t, reference unsafe=%t", name, res.Unsafe, wantUnsafe)
		return false
	}
	return true
}

// checkParity holds the traced layer composition to paramra.Verify on one
// input: same error class, verdict, decider, bound, counts and (for the
// deterministic fixpoint) witness.
func (r *report) checkParity(name string, want paramra.Result, werr error, got paramra.Result, gerr error) {
	if (werr == nil) != (gerr == nil) {
		r.wrongf("parity %s: paramra.Verify error %v, traced pipeline error %v", name, werr, gerr)
		return
	}
	if werr != nil {
		return
	}
	type view struct {
		Unsafe, Complete, CacheHit   bool
		DecidedBy, Class             string
		Bound                        int64
		Macro, Saturation, Skeletons int
		Witness                      string
	}
	mk := func(res paramra.Result) view {
		v := view{res.Unsafe, res.Complete, res.CacheHit, res.DecidedBy, res.Class.String(), res.EnvThreadBound,
			res.Stats.MacroStates, res.Stats.SaturationSteps, res.Stats.Skeletons, ""}
		if res.DecidedBy == "fixpoint" {
			v.Witness = strings.Join(res.Witness, ";")
		}
		return v
	}
	if w, g := mk(want), mk(got); w != g {
		r.wrongf("parity %s: paramra.Verify %+v, traced pipeline %+v", name, w, g)
	}
}

// exactCounts records exact work counts for one input; a count that differs
// from an earlier repetition of the same input in this run is reported by
// name.
func (r *report) exactCounts(input string, counts map[string]int64) {
	for k, v := range counts {
		key := input + "/" + k
		old, seen := r.counts[key]
		if !seen {
			r.counts[key] = v
			continue
		}
		if old != v {
			msg := fmt.Sprintf("changed count %s: %d then %d within one run", key, old, v)
			r.drift = append(r.drift, msg)
			fmt.Fprintln(os.Stderr, "layerbench:", msg)
			r.counts[key] = v
		}
	}
}

// layerNames maps span names to their per-layer self-time metrics.
var layerNames = []string{spParse, spSlice, spCanon, spLookup, spPrepass, spFixpoint,
	spGraph, spSkeleton, spEval, spConfirm}

// layerMetrics reports each layer's self time and work counts per unit of
// work (a corpus pass or 1000 requests).
func (r *report) layerMetrics(self map[string]int64, lc layerCounts, units float64) {
	for _, name := range layerNames {
		r.layer(name+"_ms", float64(self[name])/1e6/units)
	}
	if ns := self[spFixpoint]; ns > 0 {
		r.layer("simplified.states_per_s", float64(lc.macroStates)/(float64(ns)/1e9))
	}
	r.layer("cache.hit_frac", ratio(lc.cacheHits, lc.cacheLookups))
	r.layer("cache.stores", float64(lc.cacheStores)/units)
	r.layer("absint.replay_states", float64(lc.replayStates)/units)
	r.layer("absint.alloc_mb", float64(lc.prepassAlloc)/1e6/units)
	r.layer("simplified.macro_states", float64(lc.macroStates)/units)
	r.layer("simplified.saturation_steps", float64(lc.saturation)/units)
	r.layer("simplified.alloc_mb", float64(lc.fixpointAlloc)/1e6/units)
	r.layer("engine.dedup_hits", float64(lc.dedupHits)/units)
	r.layer("engine.peak_frontier", float64(lc.peakFrontier))
	r.layer("encode.skeletons", float64(lc.skeletons)/units)
	r.layer("datalog.rounds", float64(lc.rounds)/units)
	r.layer("datalog.atoms", float64(lc.atoms)/units)
	r.layer("ra.confirm_states", float64(lc.confirmStates)/units)
}

// prepassMetrics reports, from the absint.prepass spans, the prepass's
// self time on inputs it left undecided and the share it decided.
func (r *report) prepassMetrics(spans []obs.SpanRecord, units float64) {
	var wasted int64
	decided, ran := 0, 0
	for _, s := range spans {
		if s.Name != spPrepass {
			continue
		}
		ran++
		if s.Attrs["decided"] == true {
			decided++
		} else {
			wasted += s.Dur()
		}
	}
	r.layer("absint.wasted_ms", float64(wasted)/1e6/units)
	r.layer("absint.decided_frac", ratio(decided, ran))
}

// cpuMetrics reports a workload's CPU times, a pass's (s) and the geometric
// mean of its per-entry or per-item medians (s), as multiples of the run's
// calibration time, and notes them raw.
func (r *report) cpuMetrics(pass, verdict float64, cal *calibration) {
	unit := cal.seconds()
	r.metric("pass_cpu_x", pass/unit)
	r.metric("verdict_cpu_x", verdict/unit)
	r.layer("bench.calibration_ms", unit*1e3)
	r.note("CPU: pass median %.4f s, verdict geomean %.4f ms; calibration median %.4f s over %d jobs",
		pass, verdict*1e3, unit, len(cal.samples))
}

// runtimeDelta is the Go runtime's work over the measured part of a run.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

func readRuntime() runtimeDelta {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{s[0].Value.Uint64(), s[1].Value.Uint64(), ms.PauseTotalNs}
}

func (d runtimeDelta) since(o runtimeDelta) runtimeDelta {
	return runtimeDelta{d.allocBytes - o.allocBytes, d.gcCycles - o.gcCycles, d.pauseNs - o.pauseNs}
}

// runtimeMetrics reports the Go runtime's work per unit.
func (r *report) runtimeMetrics(d runtimeDelta, units float64) {
	r.layer("runtime.gc_cycles", float64(d.gcCycles)/units)
	r.layer("runtime.gc_pause_ms", float64(d.pauseNs)/1e6/units)
}

// cpuSeconds is the CPU time this process has used, user and system, over
// all its threads. Time the hypervisor gave to other guests (steal) is not
// in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS clears the kernel's peak-RSS mark of this process, so that
// peakRSSMB reports the peak of one phase rather than of the whole run.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the peak RSS since the last reset (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentile is the nearest-rank q-quantile: the smallest sample with at
// least a share q of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func geomean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
