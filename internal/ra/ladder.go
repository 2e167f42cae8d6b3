package ra

import (
	"context"

	"paramra/internal/engine"
	"paramra/internal/lang"
	"paramra/internal/obs"
)

// Ladder replays a system on the concrete instances with MinN, MinN+1, …,
// MaxN env threads, in that order, until one of them reaches an assert.
// Each instance (a rung) is explored with its own state cap. The prepass's
// replay and ConfirmViolation both run on it.
type Ladder struct {
	// MinN and MaxN bound the env-thread counts tried; MinN > MaxN tries
	// none.
	MinN, MaxN int
	// MaxStates caps each rung's exploration (0 = unlimited).
	MaxStates int
	// Symmetry turns on symmetry reduction on rungs with two or more env
	// threads (see Limits.Symmetry).
	Symmetry bool
	// Workers, Progress and Metrics are passed to every rung's explorer.
	Workers  int
	Progress func(engine.Stats)
	Metrics  *obs.Registry
	// StopAtCap ends the run at the first rung the cap pruned. A caller
	// that trusts only uncapped runs (see LadderResult.Capped) learns
	// nothing more from the rungs after it.
	StopAtCap bool
	// Trace, when non-nil, gets one "replay-rung" child span per rung, with
	// attributes n, cap, states, complete and unsafe; the rung's explorer
	// records its engine span under it.
	Trace *obs.Span
}

// Rung is the outcome of one ladder instance.
type Rung struct {
	// N is the rung's env-thread count.
	N int
	// States is the number of distinct states the rung visited.
	States int
	// Complete is true when the rung exhausted its state space within the
	// cap without reaching an assert.
	Complete bool
	// Capped is true when the cap pruned the rung's search (see
	// Result.Capped).
	Capped bool
	// Unsafe is true when the rung reached an assert.
	Unsafe bool
}

// LadderResult is the outcome of a ladder run.
type LadderResult struct {
	// Rungs lists the rungs run, in order. The last one is the violating
	// or interrupted rung when there is one.
	Rungs []Rung
	// Unsafe is true when some rung reached an assert; N is that rung's
	// env-thread count and Witness its violating computation.
	Unsafe  bool
	N       int
	Witness []Event
	// Err is the context error when cancellation interrupted a rung.
	Err error
}

// States sums the states visited over every rung.
func (r LadderResult) States() int {
	total := 0
	for _, g := range r.Rungs {
		total += g.States
	}
	return total
}

// Capped reports whether the cap pruned any rung. A ladder run that was
// never capped gives the answer the same ladder gives under any larger
// cap: an exhausted rung is exhausted under any cap, and on one worker a
// violating rung finds the same violation after the same states.
func (r LadderResult) Capped() bool {
	for _, g := range r.Rungs {
		if g.Capped {
			return true
		}
	}
	return false
}

// Run explores the rungs in order and stops at the first one that reaches
// an assert or is interrupted by ctx (or is capped, with StopAtCap). The error is NewInstance's, for a
// system that cannot be instantiated; the rungs run before it are kept.
func (l Ladder) Run(ctx context.Context, sys *lang.System) (LadderResult, error) {
	var res LadderResult
	for n := l.MinN; n <= l.MaxN; n++ {
		inst, err := NewInstance(sys, n)
		if err != nil {
			return res, err
		}
		span := l.Trace.Child("replay-rung")
		out := inst.ExploreContext(ctx, Limits{
			MaxStates: l.MaxStates,
			Workers:   l.Workers,
			Symmetry:  l.Symmetry && n > 1,
			Progress:  l.Progress,
			Trace:     span,
			Metrics:   l.Metrics,
		})
		g := Rung{N: n, States: out.States, Complete: out.Complete, Capped: out.Capped, Unsafe: out.Unsafe}
		if span != nil {
			span.SetAttr("n", n)
			span.SetAttr("cap", l.MaxStates)
			span.SetAttr("states", g.States)
			span.SetAttr("complete", g.Complete)
			span.SetAttr("unsafe", g.Unsafe)
			span.End()
		}
		res.Rungs = append(res.Rungs, g)
		if out.Unsafe {
			res.Unsafe, res.N, res.Witness = true, n, out.Witness
			return res, nil
		}
		if out.Err != nil {
			res.Err = out.Err
			return res, nil
		}
		if l.StopAtCap && out.Capped {
			return res, nil
		}
	}
	return res, nil
}
