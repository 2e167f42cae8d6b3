package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"paramra/internal/obs"
)

// Admitter is handed to Layered commit callbacks to enqueue successor
// states. Admission order is the (deterministic) commit order, so the next
// layer's contents and order are identical for every worker count.
type Admitter[S any] struct {
	visited *arenaSet
	cnt     *counters
	max     int
	next    []S
	capped  bool
}

// Add admits the state under key iff the key is new and the state cap
// allows it; it reports whether the state was enqueued for the next layer.
func (a *Admitter[S]) Add(key string, s S) bool { return a.AddBytes([]byte(key), s) }

// AddBytes is Add with a byte-slice key. The visited set copies a new key
// into its arena, so the caller may reuse the buffer, and a duplicate costs
// no allocation.
func (a *Admitter[S]) AddBytes(key []byte, s S) bool {
	if !a.visited.insert(key) {
		a.cnt.dedupHits.Add(1)
		return false
	}
	if !a.cnt.admit(a.max) {
		a.capped = true
		return false
	}
	a.next = append(a.next, s)
	return true
}

// States returns the number of states admitted so far (including the root).
func (a *Admitter[S]) States() int { return int(a.cnt.states.Load()) }

// AddTransitions adds to the engine-level transition counter (the commit
// callback knows how many successor edges an expansion examined).
func (a *Admitter[S]) AddTransitions(n int64) { a.cnt.transitions.Add(n) }

// serialBelow is the frontier size under which a layer is expanded by a
// single goroutine regardless of the configured worker count. Tiny layers
// (program prologues, near-fixpoint tails) cost more in goroutine fan-out
// and cache ping-pong than the expansion itself; falling through to serial
// keeps workers>1 from regressing small instances while leaving the
// committed results untouched (commit order never depends on worker count).
const serialBelow = 32

// Layered runs a deterministic batched-BFS search. Each layer is expanded
// in parallel (expand must not mutate state shared between items), then
// commit is invoked sequentially, in frontier order, with each expansion
// result. commit merges order-sensitive bookkeeping, admits successors via
// the Admitter, and returns a non-nil halt tag to stop the search (the
// first in commit order wins — making verdicts, witnesses and stats
// reproducible across worker counts).
//
// The visited set is an arenaSet: keys live in pointer-free byte arenas
// and only commit writes to it, so it needs no locks (Explore, whose
// workers admit concurrently, uses a ShardedMap instead).
//
// The root must already be "committed" by the caller (its key is admitted
// here, but no commit call is made for it).
func Layered[S any, E any](
	ctx context.Context,
	cfg Config,
	root S, rootKey string,
	expand func(s S) E,
	commit func(index int, s S, e E, adm *Admitter[S]) (haltTag any),
) Outcome {
	workers := cfg.workers()
	start := time.Now()
	cnt := &counters{}
	adm := &Admitter[S]{visited: newArenaSet(), cnt: cnt, max: cfg.MaxStates}
	adm.visited.insert([]byte(rootKey))
	cnt.states.Store(1)
	cnt.bumpPeak(1)

	span := cfg.Trace.Child(cfg.spanName("layered"))
	var hLayer *obs.Histogram
	if cfg.Metrics != nil {
		hLayer = cfg.Metrics.Histogram("paramra_engine_layer_ns",
			"wall time per BFS layer: parallel expansion plus sequential commit (ns)")
	}
	shardStats := func() (int64, int64) {
		mx, used := adm.visited.shardStats()
		return int64(mx), int64(used)
	}
	mon := startMonitor(cfg, cnt, workers, start, nil, shardStats)

	// The layer span is opened from this sequential loop (never from the
	// parallel expansion), so span IDs are deterministic at any -j.
	var curLayer *obs.Span
	finish := func(haltTag any, err error) Outcome {
		final := cnt.snapshot(workers, start)
		mon.stop(final, nil, shardStats)
		out := Outcome{
			Stats:   final,
			Halted:  haltTag != nil,
			HaltTag: haltTag,
			Capped:  adm.capped,
			Err:     err,
		}
		out.Complete = !out.Halted && !out.Capped && out.Err == nil
		curLayer.End()
		if span != nil {
			mx, used := adm.visited.shardStats()
			span.SetAttr("states", final.States)
			span.SetAttr("transitions", final.Transitions)
			span.SetAttr("dedup_hits", final.DedupHits)
			span.SetAttr("peak_frontier", final.PeakFrontier)
			span.SetAttr("workers", workers)
			span.SetAttr("halted", out.Halted)
			span.SetAttr("capped", out.Capped)
			span.SetAttr("complete", out.Complete)
			span.SetAttr("shard_max", mx)
			span.SetAttr("shards_nonempty", used)
			span.End()
		}
		return out
	}

	layer := []S{root}
	depth := 0
	for len(layer) > 0 {
		if err := ctxErr(ctx); err != nil {
			return finish(nil, err)
		}
		if cfg.MaxDepth > 0 && depth >= cfg.MaxDepth {
			adm.capped = true
			return finish(nil, nil)
		}
		cnt.bumpPeak(int64(len(layer)))

		var layerStart time.Time
		if hLayer != nil {
			layerStart = time.Now()
		}
		if span != nil {
			curLayer = span.Child("layer")
			curLayer.SetAttr("depth", depth)
			curLayer.SetAttr("size", len(layer))
		}

		w := workers
		if len(layer) < serialBelow {
			w = 1
		}
		exps := parMap(ctx, w, layer, expand)
		if err := ctxErr(ctx); err != nil {
			return finish(nil, err)
		}

		adm.next = adm.next[:0:0]
		for i, e := range exps {
			if tag := commit(i, layer[i], e, adm); tag != nil {
				return finish(tag, nil)
			}
		}
		if hLayer != nil {
			hLayer.Observe(int64(time.Since(layerStart)))
		}
		if curLayer != nil {
			curLayer.SetAttr("states", int(cnt.states.Load()))
			curLayer.End()
			curLayer = nil
		}
		layer = adm.next
		depth++
	}
	return finish(nil, nil)
}

// parMap evaluates f over every item of layer using up to `workers`
// goroutines, load-balanced by an atomic index. Items started after the
// context fires are skipped (their results are the zero value); the caller
// re-checks the context before using the results.
func parMap[S any, E any](ctx context.Context, workers int, layer []S, f func(S) E) []E {
	out := make([]E, len(layer))
	if len(layer) == 0 {
		return out
	}
	if workers > len(layer) {
		workers = len(layer)
	}
	if workers <= 1 {
		for i, s := range layer {
			if ctxErr(ctx) != nil {
				return out
			}
			out[i] = f(s)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(layer) || ctxErr(ctx) != nil {
					return
				}
				out[i] = f(layer[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
