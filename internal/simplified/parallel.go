package simplified

import (
	"context"
	"runtime"
	"sync"
	"time"

	"paramra/internal/engine"
	"paramra/internal/obs"
)

// expOut is the result of expanding one macro-state: its successors (with
// pre-computed memo key bytes), any violation, and the expansion's stats and
// provenance overlay (handed off from the exec, see exec.handOff) to be
// merged in commit order.
//
// Successor keys are carried as one concatenated byte arena (keyBuf sliced
// by keyEnds) rather than interned strings: commit admits via AddBytes,
// which copies a genuinely new key into the engine's visited-set arena.
//
// The engine buffers a whole layer's outputs until the sequential commit
// phase, so an expOut holds only what commit genuinely needs; the heavy
// saturation scratch stays on the exec, which is released as soon as the
// expansion ends. Outputs are recycled through a run-scoped outCache so the
// arenas' capacity survives across layers.
type expOut struct {
	succs     []*state
	keyBuf    []byte
	keyEnds   []int32
	stats     Stats
	msgLogs   map[string]DisGen
	msgOrder  []string
	viol      *Violation
	violState *state
	// free carries scrubbed state structs from commit back to expansion:
	// commit parks here every successor it did not admit and the parent it
	// has finished with, and the next expansion handed this output moves
	// them onto its exec's freelist (takeFree). Commit is sequential and
	// each output has one expansion at a time, so the handover needs no
	// lock of its own.
	free []*state
}

// pushSucc appends a successor and its key bytes to the expansion output.
func (o *expOut) pushSucc(ns *state, key []byte) {
	o.succs = append(o.succs, ns)
	o.keyBuf = append(o.keyBuf, key...)
	o.keyEnds = append(o.keyEnds, int32(len(o.keyBuf)))
}

// admit offers every successor to the visited set in order, calls
// onAdmit (if non-nil) on each one admitted, and parks each one not
// admitted (a duplicate, or over the state cap) on o.free.
func (o *expOut) admit(adm *engine.Admitter[*state], onAdmit func(*state)) {
	lo := int32(0)
	for j, ns := range o.succs {
		hi := o.keyEnds[j]
		if !adm.AddBytes(o.keyBuf[lo:hi], ns) {
			o.free = append(o.free, scrubState(ns))
		} else if onAdmit != nil {
			onAdmit(ns)
		}
		lo = hi
	}
}

// takeFree moves the recycled state structs an output carries onto the
// exec's freelist (up to its bound; the rest are left to the collector).
func (ex *exec) takeFree(o *expOut) {
	for i, ns := range o.free {
		if len(ex.freeStates) < maxFreeStates {
			ex.freeStates = append(ex.freeStates, ns)
		}
		o.free[i] = nil
	}
	o.free = o.free[:0]
}

// outCache recycles expansion outputs within one run. Commit returns each
// output after consuming it, so the cache's steady-state size is the number
// of outputs the engine holds between an expansion finishing and its commit
// running — bounded by the largest frontier, but each entry is small (slice
// headers plus key bytes), unlike a full exec.
type outCache struct {
	mu   sync.Mutex
	free []*expOut
}

func (c *outCache) get() *expOut {
	c.mu.Lock()
	n := len(c.free)
	if n == 0 {
		c.mu.Unlock()
		return &expOut{}
	}
	o := c.free[n-1]
	c.free[n-1] = nil
	c.free = c.free[:n-1]
	c.mu.Unlock()
	return o
}

func (c *outCache) put(o *expOut) {
	clear(o.succs)
	o.succs = o.succs[:0]
	o.keyBuf = o.keyBuf[:0]
	o.keyEnds = o.keyEnds[:0]
	o.stats = Stats{}
	// Keep the (cleared) overlay map and order slice: handOff swaps them
	// back onto the next exec, so overlay storage round-trips between the
	// two caches instead of being reallocated per expansion.
	if o.msgLogs != nil {
		clear(o.msgLogs)
	}
	clear(o.msgOrder[:cap(o.msgOrder)])
	o.msgOrder = o.msgOrder[:0]
	o.viol, o.violState = nil, nil
	// o.free is kept: it is the payload the next expansion picks up.
	c.mu.Lock()
	c.free = append(c.free, o)
	c.mu.Unlock()
}

// VerifyContext runs the macro-state search on the layered parallel engine.
// Verdicts, witnesses, statistics and §4.3 bounds are bit-identical to the
// sequential Verify for every worker count: each layer is expanded
// concurrently against a frozen provenance map (every expansion works on a
// private overlay), then the overlays are merged and successors admitted
// sequentially in frontier order, so the first derivation of every message
// — and with it every read-log chain — is the same as in a 1-worker run.
//
// Cancellation (ctx) is the primary resource limit; Options.MaxMacroStates
// remains a secondary cap. On cancellation the partial Result carries
// Err = ctx.Err() and Complete = false.
//
// Engine.Wall and Engine.Workers are populated on every return path,
// including violations found while saturating the initial state.
func (v *Verifier) VerifyContext(ctx context.Context) Result {
	start := time.Now()
	workers := v.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	span := v.opts.Trace.Child("fixpoint")
	finish := func(res Result) Result {
		if span != nil {
			span.SetAttr("macro_states", res.Stats.MacroStates)
			span.SetAttr("dis_transitions", res.Stats.DisTransitions)
			span.SetAttr("env_configs", res.Stats.EnvConfigs)
			span.SetAttr("env_msgs", res.Stats.EnvMsgs)
			span.SetAttr("saturation_steps", res.Stats.SaturationSteps)
			span.SetAttr("unsafe", res.Unsafe)
			span.SetAttr("complete", res.Complete)
			span.End()
		}
		return res
	}

	var hSat *obs.Histogram
	var gCfg, gMsgs *obs.Gauge
	if m := v.opts.Metrics; m != nil {
		hSat = m.Histogram("paramra_fixpoint_saturate_ns",
			"wall time per env-set saturation to fixpoint (ns)")
		gCfg = m.Gauge("paramra_fixpoint_env_configs",
			"high-water mark of abstract env configurations in a macro-state")
		gMsgs = m.Gauge("paramra_fixpoint_env_msgs",
			"high-water mark of abstract env messages in a macro-state")
	}
	// saturate wraps exec.saturate with an optional latency observation; it
	// is called concurrently from expansion workers (Observe is atomic).
	saturate := func(ex *exec, st *state) *Violation {
		if hSat == nil {
			return ex.saturate(st)
		}
		t0 := time.Now()
		viol := ex.saturate(st)
		hSat.Observe(int64(time.Since(t0)))
		return viol
	}

	global := newExec(v, nil)
	cache := &execCache{}
	outs := &outCache{}
	init := v.initState()

	satSpan := span.Child("init-saturate")
	initViol := saturate(global, init)
	if satSpan != nil {
		satSpan.SetAttr("env_configs", len(init.env.Configs))
		satSpan.SetAttr("env_msgs", len(init.env.Msgs))
		satSpan.End()
	}

	early := func(res Result) Result {
		res.Stats.MacroStates = 1
		res.Engine = engine.Stats{
			States:  1,
			Wall:    time.Since(start),
			Workers: workers,
		}
		return finish(res)
	}
	if initViol != nil {
		return early(global.unsafeResult(initViol, init))
	}
	if viol := global.checkGoalDis(init); viol != nil {
		return early(global.unsafeResult(viol, init))
	}

	var unsafeRes *Result

	expand := func(st *state) *expOut {
		// Private exec: reads the frozen global provenance, writes locally.
		// checkGoalDis never needs a same-layer sibling's record — any dis
		// message in st's memory was stored either on st's own path (already
		// merged into the global map when st was admitted in an earlier
		// layer) or by this very expansion. The exec is released at the end
		// of this function (handOff), so the number of live execs tracks the
		// in-flight expansions, not the layer size.
		ex := cache.get(v, global.msgLogs)
		o := outs.get()
		ex.takeFree(o)
		succs, viol := ex.disSuccessors(st)
		if viol != nil {
			o.viol, o.violState = viol, st
			ex.handOff(o, cache)
			return o
		}
		enc := &ex.enc
		suffix := ex.sufBuf[:0] // parent's mem+env key suffix, filled lazily
		for _, ns := range succs {
			memChanged := ns.memChanged()
			if memChanged {
				// Successors with untouched dis memory inherit the parent's
				// env fixpoint, so their saturation is a provable no-op and
				// is skipped (see state.memChanged).
				if viol := saturate(ex, ns); viol != nil {
					o.viol, o.violState = viol, ns
					break
				}
			}
			if memChanged {
				// The goal check is pure in the dis memory: an unchanged
				// memory has the parent's (already checked, goal-free) result.
				if viol := ex.checkGoalDis(ns); viol != nil {
					o.viol, o.violState = viol, ns
					break
				}
			}
			enc.Reset()
			ns.appendKeyDis(enc)
			if memChanged {
				ns.appendKeyMemEnv(enc)
			} else {
				// Untouched memory and env: the key suffix equals the
				// parent's, encoded at most once per expansion.
				if len(suffix) == 0 {
					ex.enc2.Reset()
					st.appendKeyMemEnv(&ex.enc2)
					suffix = append(suffix, ex.enc2.Bytes()...)
				}
				enc.Raw(suffix)
			}
			o.pushSucc(ns, enc.Bytes())
		}
		ex.sufBuf = suffix[:0]
		ex.handOff(o, cache)
		return o
	}

	commit := func(i int, st *state, o *expOut, adm *engine.Admitter[*state]) any {
		global.recordSizes(st)
		global.mergeOut(o)
		adm.AddTransitions(int64(o.stats.DisTransitions))
		gCfg.Max(int64(global.stats.EnvConfigs))
		gMsgs.Max(int64(global.stats.EnvMsgs))
		// Successors discovered before a violation are admitted first: the
		// sequential loop admits each saturated successor before examining
		// the next one, so stats stay bit-identical on UNSAFE runs too.
		o.admit(adm, nil)
		viol, violState := o.viol, o.violState
		if viol == nil && st != init {
			// Fully expanded and not needed by a violation: recycle.
			o.free = append(o.free, scrubState(st))
		}
		outs.put(o)
		if viol != nil {
			// Re-resolve provenance against the merged map so an earlier
			// commit's first derivation wins, exactly as sequentially.
			if viol.GoalMsg != nil && !viol.ByEnv {
				gen := global.lookupGen(viol.GoalMsg.Key())
				viol.DisIndex, viol.Log = gen.DisIndex, gen.Log
			}
			r := global.unsafeResult(viol, violState)
			unsafeRes = &r
			return &r
		}
		return nil
	}

	out := engine.Layered(ctx, engine.Config{
		Workers:   v.opts.Workers,
		MaxStates: v.opts.MaxMacroStates,
		Progress:  v.opts.Progress,
		Trace:     span,
		Metrics:   v.opts.Metrics,
	}, init, init.key(), expand, commit)

	if unsafeRes != nil {
		res := *unsafeRes
		res.Capped = out.Capped
		res.Stats.MacroStates = int(out.Stats.States)
		res.Engine = out.Stats
		res.Engine.Transitions = int64(res.Stats.DisTransitions)
		return finish(res)
	}
	res := Result{
		Unsafe:   false,
		Complete: out.Complete,
		Capped:   out.Capped,
		Stats:    global.stats,
		Err:      out.Err,
	}
	res.Stats.MacroStates = int(out.Stats.States)
	res.Engine = out.Stats
	res.Engine.Transitions = int64(res.Stats.DisTransitions)
	return finish(res)
}
