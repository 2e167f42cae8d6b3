package absint

import (
	"context"
	"fmt"

	"paramra/internal/lang"
	"paramra/internal/ra"
)

// Verdict is the prepass outcome under the Theorem 3.4 lattice.
type Verdict int

// Prepass verdicts.
const (
	// Inconclusive means the prepass could not decide; run the full
	// decision procedure.
	Inconclusive Verdict = iota
	// Safe is a definitive proof: no assert (or goal message) is abstractly
	// reachable for any replica count.
	Safe
	// Unsafe is a definitive witness: a concrete instance replayed under
	// the full RA semantics reaches an assert.
	Unsafe
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Safe:
		return "SAFE"
	case Unsafe:
		return "UNSAFE"
	default:
		return "INCONCLUSIVE"
	}
}

// Goal switches the prepass to the Message Generation problem (§4.1): can
// a message with the given variable and value be generated? Only the SAFE
// fast path applies to goals.
type Goal struct {
	Var lang.VarID
	Val lang.Val
}

// Options bounds the prepass. The zero value selects the defaults noted on
// each field.
type Options struct {
	// Goal, when non-nil, asks Message Generation instead of assert
	// reachability.
	Goal *Goal
	// MaxReplayStates caps each concrete replay instance (default 30000).
	MaxReplayStates int
	// MaxReplayEnv caps the env replica counts tried by the replay
	// (default 4).
	MaxReplayEnv int
	// Workers is the replay parallelism (default 1). An instance explored
	// to exhaustion gives the same answer and state count for every value.
	// An instance that reaches the assert or hits MaxReplayStates stops at
	// a point that depends on the workers' schedule, so with more than one
	// worker its witness and state count can vary, and a capped instance
	// can miss a violation that another run finds.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxReplayStates == 0 {
		o.MaxReplayStates = 30_000
	}
	if o.MaxReplayEnv == 0 {
		o.MaxReplayEnv = 4
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// Outcome is the full prepass answer.
type Outcome struct {
	Verdict Verdict
	// Reason is a one-line human-readable justification.
	Reason string
	// Analysis is the underlying abstract interpretation result.
	Analysis *Result
	// EnvThreads is the replica count of the confirming instance (UNSAFE
	// verdicts only; 0 for env-less witnesses).
	EnvThreads int
	// Witness is the confirming interleaving, one event per line (UNSAFE
	// verdicts only).
	Witness string
	// ReplayStates counts concrete states explored across all replay
	// instances (0 when no replay ran).
	ReplayStates int
}

// Prepass tries to decide parameterized safety statically, in milliseconds:
// SAFE when the abstract interpretation proves no assert reachable (sound
// for every replica count, including systems outside the decidable
// fragment — dis loops and env CAS are handled abstractly); UNSAFE when a
// constant-folded loop-free path to an assert exists and a bounded concrete
// replay under the full RA semantics confirms it (so an UNSAFE answer is a
// real witness by construction). Everything else is Inconclusive.
//
// Prepass is Plan followed by one replay ladder at MaxReplayStates states
// per rung. The only error returned is the context's, when cancellation
// interrupts a replay before a verdict.
func Prepass(ctx context.Context, sys *lang.System, opts Options) (Outcome, error) {
	out, rep := Plan(sys, opts)
	if rep == nil {
		return out, nil
	}
	out, _, err := rep.Run(ctx, rep.Ladder(rep.MaxStates))
	return out, err
}

// Replay is the prepass's concrete stage: the replay ladder that can
// confirm a candidate path found by the abstract stage.
type Replay struct {
	sys     *lang.System
	opts    Options
	planned Outcome // the abstract stage's outcome, which Run completes
	// minN and maxN bound the env-thread counts replayed.
	minN, maxN int
	// MaxStates is the per-rung cap Prepass uses (Options.MaxReplayStates).
	MaxStates int
}

// Plan runs the prepass's abstract stage. When it finds a loop-free
// constant-folded path to an assert it returns the replay that can confirm
// it; otherwise the replay is nil and the outcome is final.
func Plan(sys *lang.System, opts Options) (Outcome, *Replay) {
	opts = opts.withDefaults()
	res := Analyze(sys)
	out := Outcome{Verdict: Inconclusive, Analysis: res}

	if opts.Goal != nil {
		g := *opts.Goal
		if !res.VarCanHold(g.Var, g.Val) {
			out.Verdict = Safe
			out.Reason = fmt.Sprintf("goal value %d is outside the abstract value set %s of '%s'",
				int(g.Val), res.Written[g.Var], sys.VarName(g.Var))
			return out, nil
		}
		out.Reason = "goal value is abstractly writable; no static witness path for goals"
		return out, nil
	}

	if !res.AssertReachable() {
		out.Verdict = Safe
		out.Reason = "no 'assert false' is abstractly reachable for any replica count"
		return out, nil
	}

	cands := findCandidates(res)
	if len(cands) == 0 {
		out.Reason = "assert abstractly reachable, but no loop-free constant-folded witness prefix"
		return out, nil
	}

	// Replay: search small concrete instances under the full RA semantics.
	// Any violation found is definitive. Start at one replica when only the
	// env template has a candidate (its asserts need an instance containing
	// an env thread).
	rep := &Replay{sys: sys, opts: opts, planned: out, minN: 1, maxN: opts.MaxReplayEnv, MaxStates: opts.MaxReplayStates}
	for _, c := range cands {
		if !c.EnvThread {
			rep.minN = 0
			break
		}
	}
	if sys.Env == nil {
		rep.maxN = 0
	}
	return out, rep
}

// Ladder returns the replay ladder over the candidate's rungs, each capped
// at maxStates.
func (r *Replay) Ladder(maxStates int) ra.Ladder {
	return ra.Ladder{
		MinN:      r.minN,
		MaxN:      r.maxN,
		MaxStates: maxStates,
		Symmetry:  true,
		Workers:   r.opts.Workers,
	}
}

// Run runs l, a ladder from r.Ladder, and completes the outcome Plan
// returned. The ladder result is returned alongside, so a caller can tell
// whether a cap shaped the answer. Run may be called again with another
// ladder; each call starts from Plan's outcome. The error is the
// context's, when cancellation interrupted a rung.
func (r *Replay) Run(ctx context.Context, l ra.Ladder) (Outcome, ra.LadderResult, error) {
	out := r.planned
	lr, err := l.Run(ctx, r.sys)
	out.ReplayStates = lr.States()
	switch {
	case err != nil:
		// Validation failures are not the prepass's to report; let the
		// main pipeline surface them.
		out.Reason = "replay unavailable: " + err.Error()
	case lr.Unsafe:
		out.Verdict = Unsafe
		out.EnvThreads = lr.N
		out.Witness = ra.FormatWitness(lr.Witness)
		out.Reason = fmt.Sprintf("concrete replay with %d env thread(s) reaches the assert (%d states)",
			lr.N, lr.Rungs[len(lr.Rungs)-1].States)
	case lr.Err != nil:
		out.Reason = "replay interrupted: " + lr.Err.Error()
		return out, lr, lr.Err
	case !lr.Capped():
		out.Reason = fmt.Sprintf("candidate path found, but exhaustive replay of every instance with %d to %d env thread(s) (%d states) reaches no assert",
			r.minN, r.maxN, out.ReplayStates)
	default:
		out.Reason = fmt.Sprintf("candidate path found, but no replay instance within %d env thread(s) and %d states confirms",
			r.maxN, l.MaxStates)
	}
	return out, lr, nil
}
