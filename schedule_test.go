package paramra_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"paramra"
	"paramra/internal/absint"
	"paramra/internal/bench"
	"paramra/internal/depgraph"
	"paramra/internal/fuzzgen"
	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/simplified"
)

// referenceVerify is Verify with Prepass set as it ran before the bounded
// prepass schedule: absint.Prepass with its full replay ladder, then the
// simplified fixpoint, then the depgraph bound of a violation. It covers
// the uncached, goal-free, unroll-free path the comparison below takes.
func referenceVerify(ctx context.Context, sys *lang.System, opts paramra.Options) (paramra.Result, error) {
	res := paramra.Result{EnvThreadBound: -1}
	aopts := absint.Options{Workers: opts.Parallelism}
	if opts.MaxStates > 0 {
		aopts.MaxReplayStates = opts.MaxStates
	}
	out, err := absint.Prepass(ctx, sys, aopts)
	res.Class = lang.Classify(sys)
	if err != nil {
		return res, err
	}
	switch out.Verdict {
	case absint.Safe:
		res.Complete, res.DecidedBy = true, "prepass"
		return res, nil
	case absint.Unsafe:
		res.Unsafe, res.Complete, res.DecidedBy = true, true, "prepass"
		res.EnvThreadBound = int64(out.EnvThreads)
		return res, nil
	}
	res.DecidedBy = "fixpoint"
	ver, err := simplified.New(sys, simplified.Options{
		MaxMacroStates: opts.MaxMacroStates,
		Workers:        opts.Parallelism,
	})
	if err != nil {
		return res, err
	}
	fix := ver.VerifyContext(ctx)
	res.Unsafe, res.Complete = fix.Unsafe, fix.Complete
	res.Stats.MacroStates = fix.Stats.MacroStates
	res.Stats.SaturationSteps = fix.Stats.SaturationSteps
	if fix.Err != nil {
		return res, fix.Err
	}
	if fix.Unsafe && fix.Violation != nil {
		res.Witness = fix.Violation.Log.Keys()
		if g, err := depgraph.FromViolation(sys, fix.Violation); err == nil {
			res.EnvThreadBound = g.CostGoal()
		}
	}
	return res, nil
}

// parityView is the part of a Result the schedule must leave unchanged:
// every field but the prepass's replay witness and reason, its state
// counts, and timings.
func parityView(res paramra.Result) string {
	w := ""
	if res.DecidedBy == "fixpoint" {
		w = strings.Join(res.Witness, ";")
	}
	return fmt.Sprintf("unsafe=%t complete=%t cache=%t by=%s class=%s bound=%d macro=%d sat=%d witness=%s",
		res.Unsafe, res.Complete, res.CacheHit, res.DecidedBy, res.Class, res.EnvThreadBound,
		res.Stats.MacroStates, res.Stats.SaturationSteps, w)
}

type verifyFunc func(context.Context, *lang.System, paramra.Options) (paramra.Result, error)

// withCaps is Verify with the prepass schedule's caps set to round and
// fixpoint.
func withCaps(round, fixpoint int) verifyFunc {
	return func(ctx context.Context, sys *lang.System, opts paramra.Options) (paramra.Result, error) {
		return paramra.VerifyScheduleForTest(ctx, sys, opts, round, fixpoint)
	}
}

// compareSchedule verifies sys with the reference and with verify, under
// one deadline each, and reports a mismatch; it returns false when a side
// timed out, so the input proves nothing.
func compareSchedule(t *testing.T, name string, sys *lang.System, workers int, verify verifyFunc) bool {
	t.Helper()
	opts := paramra.Options{Prepass: true, Parallelism: workers}
	run := func(f verifyFunc) (paramra.Result, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		return f(ctx, sys, opts)
	}
	want, werr := run(referenceVerify)
	got, gerr := run(verify)
	if errors.Is(werr, context.DeadlineExceeded) || errors.Is(gerr, context.DeadlineExceeded) {
		t.Logf("%s j=%d: timed out (reference %v, schedule %v)", name, workers, werr, gerr)
		return false
	}
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Errorf("%s j=%d: reference error %v, schedule error %v", name, workers, werr, gerr)
		return true
	}
	if w, g := parityView(want), parityView(got); w != g {
		t.Errorf("%s j=%d:\nreference %s\nschedule  %s (%s)", name, workers, w, g, got.PrepassReason)
	}
	return true
}

// TestPrepassScheduleMatchesReference: Verify with the bounded prepass
// schedule gives the old composition's answer on every corpus entry and on
// default-profile fuzz seeds 1..1000 (100 in -short mode), at one and two
// workers.
func TestPrepassScheduleMatchesReference(t *testing.T) {
	for _, j := range []int{1, 2} {
		for _, e := range bench.Corpus() {
			compareSchedule(t, e.Name, e.System(), j, paramra.Verify)
		}
	}
	seeds := 1000
	if testing.Short() {
		seeds = 100
	}
	prof := fuzzgen.DefaultProfile()
	compared := 0
	for _, j := range []int{1, 2} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			if compareSchedule(t, fmt.Sprintf("seed %d", seed), fuzzgen.Generate(seed, prof), j, paramra.Verify) {
				compared++
			}
		}
	}
	t.Logf("compared %d of %d fuzz inputs", compared, 2*seeds)
}

// TestPrepassScheduleTinyCapsMatchReference drives the schedule's later
// exits, which the real caps rarely reach: with caps of a few states the
// first round is usually pruned, the bounded fixpoint is usually capped,
// and most inputs go through the full ladder and a reused or fresh
// fixpoint. The answer must still be the old composition's.
func TestPrepassScheduleTinyCapsMatchReference(t *testing.T) {
	caps := [][2]int{{1, 1}, {8, 16}, {64, 256}}
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	prof := fuzzgen.DefaultProfile()
	for _, c := range caps {
		verify := withCaps(c[0], c[1])
		for _, j := range []int{1, 2} {
			for _, e := range bench.Corpus() {
				compareSchedule(t, fmt.Sprintf("%s caps=%v", e.Name, c), e.System(), j, verify)
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				compareSchedule(t, fmt.Sprintf("seed %d caps=%v", seed, c), fuzzgen.Generate(seed, prof), j, verify)
			}
		}
	}
}

// scheduleSpans verifies sys on one worker with the given caps and returns
// the names of the spans under its prepass span, in order, with each
// replay rung's n and cap.
func scheduleSpans(t *testing.T, sys *lang.System, round, fixpoint int) (paramra.Result, []string) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	res, err := paramra.VerifyScheduleForTest(context.Background(), sys,
		paramra.Options{Prepass: true, Parallelism: 1, Tracer: tr}, round, fixpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	prepass := int64(-1)
	var names []string
	for _, s := range spans {
		switch {
		case s.Name == "prepass":
			prepass = s.ID
		case s.Parent == prepass && s.Name == "replay-rung":
			names = append(names, fmt.Sprintf("replay-rung n=%v cap=%v", s.Attrs["n"], s.Attrs["cap"]))
		case s.Parent == prepass:
			names = append(names, s.Name)
		}
	}
	return res, names
}

// TestPrepassScheduleCappedRoundFallsThrough: a round in which the cap
// pruned a rung decides nothing and runs no further rung; the bounded
// fixpoint and then the full ladder answer.
func TestPrepassScheduleCappedRoundFallsThrough(t *testing.T) {
	e, _ := bench.ByName("barrier-release")
	// At one state per rung, rung 0 is capped, so the round stops there
	// without trying rung 1, where the violation is. The bounded fixpoint
	// says UNSAFE, which does not decide, and the full ladder finds the
	// violation at n = 1.
	res, spans := scheduleSpans(t, e.System(), 1, 4096)
	want := []string{
		"replay-rung n=0 cap=1",
		"bounded-fixpoint",
		"replay-rung n=0 cap=30000", "replay-rung n=1 cap=30000",
	}
	if strings.Join(spans, "|") != strings.Join(want, "|") {
		t.Errorf("barrier-release spans:\n got %q\nwant %q", spans, want)
	}
	if !res.Unsafe || !res.Complete || res.DecidedBy != "prepass" || res.EnvThreadBound != 1 {
		t.Errorf("barrier-release: %s, want prepass UNSAFE at n = 1", parityView(res))
	}
}
