package paramra

import (
	"context"
	"fmt"
	"strings"

	"paramra/internal/absint"
	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/simplified"
)

// Prepass verdict values (Theorem 3.4 lattice positions the static prepass
// can reach on its own).
type PrepassVerdict = absint.Verdict

// Re-exported prepass verdicts.
const (
	// PrepassInconclusive means the static prepass could not decide.
	PrepassInconclusive = absint.Inconclusive
	// PrepassSafe is a sound proof valid for every replica count.
	PrepassSafe = absint.Safe
	// PrepassUnsafe is a concrete, replayed witness.
	PrepassUnsafe = absint.Unsafe
)

// PrepassOutcome is the full answer of the static prepass.
type PrepassOutcome = absint.Outcome

// Prepass runs the RA-aware abstract interpretation and its two fast paths
// on the system without any state-space search: SAFE when no assert (or the
// goal message, with Options.Goal) is abstractly reachable for any replica
// count, UNSAFE when a loop-free constant-folded path to an assert is
// confirmed by a bounded concrete replay under the full RA semantics.
// Inconclusive verdicts carry the reason the fast paths did not fire.
//
// Verify runs this automatically when Options.Prepass is set; the separate
// entry point serves callers that want the abstract analysis itself (e.g.
// value-set reports) or a decision without ever falling back to a search.
func Prepass(ctx context.Context, sys *System, opts Options) (PrepassOutcome, error) {
	opts = opts.normalized()
	span := opts.beginSpan(ctx, "prepass")
	defer span.End()
	return prepass(ctx, sys, opts, span)
}

func prepass(ctx context.Context, sys *System, opts Options, span *obs.Span) (PrepassOutcome, error) {
	aopts, done := prepassOptions(sys, opts)
	if done != nil {
		return *done, nil
	}
	out, err := absint.Prepass(ctx, sys, aopts)
	annotatePrepass(span, out)
	return out, err
}

// prepassOptions translates Options into the prepass's own. A non-nil
// outcome is the whole answer: the prepass declines to decide.
func prepassOptions(sys *System, opts Options) (absint.Options, *PrepassOutcome) {
	var aopts absint.Options
	if opts.Goal != nil {
		v, ok := sys.VarByName(opts.Goal.Var)
		if !ok {
			// Let the main pipeline report the unknown variable; the prepass
			// just declines to decide.
			return aopts, &PrepassOutcome{Verdict: PrepassInconclusive,
				Reason: "unknown goal variable"}
		}
		aopts.Goal = &absint.Goal{Var: v, Val: lang.Val(opts.Goal.Val)}
	}
	if opts.MaxStates > 0 {
		aopts.MaxReplayStates = opts.MaxStates
	}
	aopts.Workers = opts.Parallelism
	return aopts, nil
}

// annotatePrepass records the prepass outcome on its span.
func annotatePrepass(span *obs.Span, out PrepassOutcome) {
	if span == nil {
		return
	}
	span.SetAttr("verdict", out.Verdict.String())
	span.SetAttr("reason", out.Reason)
	if out.Analysis != nil {
		span.SetAttr("rounds", out.Analysis.Rounds)
	}
	if out.ReplayStates > 0 {
		span.SetAttr("replay_states", out.ReplayStates)
	}
}

// The bounded prepass schedule's caps, counted in states so that every
// answer is independent of time and load (see DESIGN.md "Prepass
// schedule").
const (
	// prepassRoundStates caps each rung of the first replay round.
	prepassRoundStates = 512
	// prepassFixpointStates caps the fixpoint run between that round and
	// the full replay ladder.
	prepassFixpointStates = 4096
)

// prepassSchedule is the prepass as Verify runs it. After the abstract
// stage finds a candidate path it runs, in order and until one decides:
//
//  1. one replay round over the ladder's rungs, each capped at roundStates;
//  2. when that round saw no violation and the system is in the decidable
//     class, the fixpoint capped at fixpointStates macro-states;
//  3. the full replay ladder, as Prepass runs it.
//
// Each exit gives the answer the full ladder followed by the fixpoint
// gives. A round that no cap pruned explored exactly what the full ladder
// explores. A complete SAFE fixpoint is the decidable class's verdict, so
// by Theorem 3.4 no replay could have reached the assert; it is returned
// as fix, with an inconclusive outcome. fix is also returned when the full
// ladder is inconclusive and step 2's run is the one Verify would make, so
// Verify need not run the fixpoint twice.
func prepassSchedule(ctx context.Context, sys *System, opts Options, span *obs.Span, roundStates, fixpointStates int) (out PrepassOutcome, fix *simplified.Result, err error) {
	defer func() { annotatePrepass(span, out) }()
	aopts, done := prepassOptions(sys, opts)
	if done != nil {
		return *done, nil, nil
	}
	out, rep := absint.Plan(sys, aopts)
	if rep == nil {
		return out, nil, nil
	}
	round := min(roundStates, rep.MaxStates)
	l := rep.Ladder(round)
	l.Trace = span
	// Past a capped rung the round can decide nothing: a later find is
	// accepted only when no rung before it was capped.
	l.StopAtCap = round < rep.MaxStates
	out, lr, err := rep.Run(ctx, l)
	if err != nil || !lr.Capped() || round == rep.MaxStates {
		return out, nil, err
	}

	fixCap := fixpointStates
	if opts.MaxMacroStates > 0 && opts.MaxMacroStates < fixCap {
		fixCap = opts.MaxMacroStates
	}
	if !lr.Unsafe && !opts.Datalog && lang.Classify(sys).Decidable() {
		if fix, err = boundedFixpoint(ctx, sys, opts, span, fixCap); err != nil {
			return out, nil, err
		}
		if fix != nil && fix.Complete && !fix.Unsafe {
			out.Reason = fmt.Sprintf("replay within %d states per instance inconclusive; the fixpoint proves SAFE in %d macro-states, so no instance reaches the assert",
				round, fix.Stats.MacroStates)
			return out, fix, nil
		}
	}

	l = rep.Ladder(rep.MaxStates)
	l.Trace = span
	out, _, err = rep.Run(ctx, l)
	if err != nil || out.Verdict != PrepassInconclusive {
		return out, nil, err
	}
	if fix != nil && (!fix.Capped || fixCap == opts.MaxMacroStates) {
		return out, fix, nil
	}
	return out, nil, nil
}

// boundedFixpoint runs step 2 of the prepass schedule: the fixpoint, wired
// as Verify wires it, capped at maxMacro macro-states, under its own span.
// A system the fixpoint rejects yields a nil result: the main pipeline
// reports the error. The error is the context's.
func boundedFixpoint(ctx context.Context, sys *System, opts Options, parent *obs.Span, maxMacro int) (*simplified.Result, error) {
	span := parent.Child("bounded-fixpoint")
	defer span.End()
	if span != nil {
		span.SetAttr("cap", maxMacro)
	}
	ver, err := simplified.New(sys, fixpointOptions(ctx, opts, span, maxMacro, nil))
	if err != nil {
		return nil, nil
	}
	out := ver.VerifyContext(ctx)
	return &out, out.Err
}

// applyPrepass folds a decisive prepass outcome into a Result. The second
// return is false when the outcome is inconclusive (the caller proceeds to
// the full decision procedure).
func applyPrepass(res Result, out PrepassOutcome) (Result, bool) {
	switch out.Verdict {
	case PrepassSafe:
		res.Complete = true
		res.DecidedBy = "prepass"
		res.PrepassReason = out.Reason
		return res, true
	case PrepassUnsafe:
		res.Unsafe = true
		res.Complete = true
		res.DecidedBy = "prepass"
		res.PrepassReason = out.Reason
		res.EnvThreadBound = int64(out.EnvThreads)
		if out.Witness != "" {
			res.Witness = strings.Split(strings.TrimRight(out.Witness, "\n"), "\n")
		}
		return res, true
	default:
		res.PrepassReason = out.Reason
		return res, false
	}
}
