package simplified

import (
	"context"

	"paramra/internal/engine"
	"paramra/internal/lang"
)

// Inventory computes the full Message Generation relation: every
// (variable, value) pair for which some reachable configuration of the
// simplified semantics contains a message. Asserts are inert during the
// computation (as in MG mode); the boolean reports search completeness.
//
// Inventory answers all MG queries of §4.1 at once; per-pair Goal queries
// agree with it (cross-checked in the tests).
func (v *Verifier) Inventory() (map[lang.VarID]map[lang.Val]bool, Stats, bool) {
	return v.InventoryContext(context.Background())
}

// InventoryContext is Inventory under a context: cancellation stops the
// search and reports it incomplete. The search runs on the layered parallel
// engine with Options.Workers expansion goroutines.
func (v *Verifier) InventoryContext(ctx context.Context) (map[lang.VarID]map[lang.Val]bool, Stats, bool) {
	// Force MG mode with an unreachable goal so asserts are inert and the
	// search never exits early. The engine's expand goroutines only read
	// opts, so the temporary mutation is race-free.
	savedGoal := v.opts.Goal
	v.opts.Goal = &Goal{Var: 0, Val: -1}
	defer func() { v.opts.Goal = savedGoal }()

	inv := make(map[lang.VarID]map[lang.Val]bool, len(v.sys.Vars))
	for i := range v.sys.Vars {
		inv[lang.VarID(i)] = map[lang.Val]bool{}
	}
	record := func(st *state) {
		for vi := 0; vi < st.mem.NumVars(); vi++ {
			st.mem.Each(lang.VarID(vi), func(m AMsg) {
				inv[m.Var][m.Val] = true
			})
		}
		for _, me := range st.env.Msgs {
			inv[me.Msg.Var][me.Msg.Val] = true
		}
	}

	global := newExec(v, nil)
	cache := &execCache{}
	outs := &outCache{}
	init := v.initState()
	global.saturate(init)
	record(init)

	expand := func(st *state) *expOut {
		ex := cache.get(v, global.msgLogs)
		o := outs.get()
		ex.takeFree(o)
		succs, _ := ex.disSuccessors(st)
		enc := &ex.enc
		suffix := ex.sufBuf[:0] // parent's mem+env key suffix, filled lazily
		for _, ns := range succs {
			memChanged := ns.memChanged()
			if memChanged {
				ex.saturate(ns)
			}
			enc.Reset()
			ns.appendKeyDis(enc)
			if memChanged {
				ns.appendKeyMemEnv(enc)
			} else {
				// Untouched memory and env: reuse the parent's key suffix.
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
		o.admit(adm, record)
		if st != init {
			o.free = append(o.free, scrubState(st))
		}
		outs.put(o)
		return nil
	}

	out := engine.Layered(ctx, engine.Config{
		Workers:   v.opts.Workers,
		MaxStates: v.opts.MaxMacroStates,
		Progress:  v.opts.Progress,
		Trace:     v.opts.Trace,
		SpanName:  "inventory",
		Metrics:   v.opts.Metrics,
	}, init, init.key(), expand, commit)

	stats := global.stats
	stats.MacroStates = int(out.Stats.States)
	return inv, stats, out.Complete
}
