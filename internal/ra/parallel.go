package ra

import (
	"context"
	"sync"

	"paramra/internal/engine"
)

// backEdge stores, for each visited state, its predecessor key and the
// incoming event — enough to reconstruct a witness by chain walking.
type backEdge struct {
	prevKey string
	ev      evRef
}

// ExploreContext runs the safety search of Explore on the free-order
// parallel engine: lim.Workers goroutines share a batched frontier and a
// sharded visited set. Verdicts — and, for exhaustive searches, state and
// transition counts — coincide with the sequential explorer for every
// worker count; witness interleavings may differ between runs (the first
// violation discovered wins). Cancellation via ctx stops the search with
// Result.Err = ctx.Err() and Complete = false.
func (inst *Instance) ExploreContext(ctx context.Context, lim Limits) Result {
	init := inst.InitState()
	initKey := inst.stateKey(init, lim)
	visited := engine.NewShardedMap[backEdge]()

	expand := func(s *State, key string, depth int, buf []engine.Succ[*State, backEdge]) []engine.Succ[*State, backEdge] {
		out := buf
		enc := engine.GetKeyEnc()
		inst.visit(s, func(ns *State, ev evRef) bool {
			if ev.assert {
				out = append(out, engine.Succ[*State, backEdge]{Halt: true, Tag: ev})
				return false
			}
			// Probe the visited set with the scratch successor's key bytes:
			// a duplicate (the common case) is never copied or interned,
			// and the grow-only set makes the positive answer stable.
			enc.Reset()
			inst.appendStateKey(enc, ns, lim)
			if visited.HasBytes(enc.Bytes()) {
				out = append(out, engine.Succ[*State, backEdge]{Dedup: true})
				return true
			}
			out = append(out, engine.Succ[*State, backEdge]{
				State: ns.Clone(),
				Key:   enc.String(),
				Val:   backEdge{prevKey: key, ev: ev},
			})
			return true
		})
		engine.PutKeyEnc(enc)
		return out
	}

	out := engine.Explore(ctx, engine.Config{
		Workers:   lim.Workers,
		MaxStates: lim.MaxStates,
		MaxDepth:  lim.MaxDepth,
		Progress:  lim.Progress,
		Trace:     lim.Trace,
		SpanName:  "concrete-explore",
		Metrics:   lim.Metrics,
	}, visited, init, initKey, backEdge{}, expand)

	res := Result{
		Unsafe:      out.Halted,
		States:      int(out.Stats.States),
		Transitions: int(out.Stats.Transitions),
		Complete:    out.Complete,
		Engine:      out.Stats,
		Err:         out.Err,
	}
	if out.Halted {
		final, _ := out.HaltTag.(evRef)
		res.Witness = inst.witness(out.HaltParent, initKey, final, visited.Get)
	}
	return res
}

// ExploreParallel is ExploreContext with a background context, keeping the
// historical (lim, workers) signature.
func (inst *Instance) ExploreParallel(lim Limits, workers int) Result {
	lim.Workers = workers
	return inst.ExploreContext(context.Background(), lim)
}

// FindDeadlocksContext classifies the instance's sink states on the
// parallel engine. Counts are deterministic (they are properties of the
// reachable state set); the reported example is canonicalized to the
// deadlocked state with the smallest key, so it too is identical for every
// worker count and schedule.
func (inst *Instance) FindDeadlocksContext(ctx context.Context, lim Limits) DeadlockReport {
	init := inst.InitState()

	var mu sync.Mutex
	rep := DeadlockReport{}
	var exampleKey string

	atExit := func(s *State, ti int) bool {
		return len(inst.Threads[ti].CFG.Out[s.Threads[ti].PC]) == 0
	}

	visited := engine.NewShardedMap[struct{}]()

	expand := func(s *State, key string, depth int, buf []engine.Succ[*State, struct{}]) []engine.Succ[*State, struct{}] {
		out := buf
		enabled := 0
		enc := engine.GetKeyEnc()
		inst.visit(s, func(ns *State, ev evRef) bool {
			enabled++
			// Assert transitions terminate their branch without counting as
			// deadlocks (safety is Explore's job).
			if ev.assert {
				return true
			}
			enc.Reset()
			ns.appendKey(enc)
			if visited.HasBytes(enc.Bytes()) {
				out = append(out, engine.Succ[*State, struct{}]{Dedup: true})
				return true
			}
			out = append(out, engine.Succ[*State, struct{}]{
				State: ns.Clone(),
				Key:   enc.String(),
			})
			return true
		})
		engine.PutKeyEnc(enc)
		if enabled > 0 {
			return out
		}
		var stuck []string
		for ti := range s.Threads {
			if !atExit(s, ti) {
				stuck = append(stuck, inst.Threads[ti].Name)
			}
		}
		mu.Lock()
		if len(stuck) > 0 {
			rep.Deadlocks++
			if exampleKey == "" || key < exampleKey {
				exampleKey = key
				rep.Example = s.String()
				rep.StuckThreads = stuck
			}
		} else {
			rep.Terminal++
		}
		mu.Unlock()
		return out
	}

	out := engine.Explore(ctx, engine.Config{
		Workers:   lim.Workers,
		MaxStates: lim.MaxStates,
		MaxDepth:  lim.MaxDepth,
		Progress:  lim.Progress,
		Trace:     lim.Trace,
		SpanName:  "deadlock-scan",
		Metrics:   lim.Metrics,
	}, visited, init, init.Key(), struct{}{}, expand)

	rep.Complete = out.Complete
	return rep
}
