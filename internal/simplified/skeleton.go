package simplified

import (
	"paramra/internal/lang"
)

// Skeleton support for the makeP encoding (§4.1). The paper's procedure
// makeP non-deterministically guesses the dis threads' part of the
// computation; the Datalog program then checks that env threads can supply
// the messages the guess consumes. An implementation cannot guess, so we
// enumerate: every dis path explored by the verifier's macro-state search
// yields one skeleton. This is the ∃-semantics of Theorem 4.1 — the
// instance is unsafe iff some skeleton's query evaluates to true — restricted
// to guesses that are consistent with a reachable env supply, which loses no
// behaviours (saturation over-approximates nothing and misses nothing).

// SkeletonStep is one dis transition of a guessed dis run.
type SkeletonStep struct {
	// Dis is the index of the stepping dis thread.
	Dis int
	// Kind is the operation kind (lang.OpNop for structural steps).
	Kind lang.OpKind
	// Var is the shared variable for load/store/CAS steps.
	Var lang.VarID
	// Val is the value loaded (load) or stored (store/CAS).
	Val lang.Val
	// TS is the integer timestamp of the store/CAS slot; -1 otherwise.
	TS int
	// ReadEnv is the env message read by a load/CAS, nil when the step read
	// a dis message or performed no read.
	ReadEnv *AMsg
	// ReadDisTS is the integer timestamp of the dis message read; -1 when
	// the read was from an env message or absent.
	ReadDisTS int
	// Stored is the dis message written by a store/CAS step.
	Stored *AMsg
	// Assert marks the violating `assert false` transition.
	Assert bool
}

// Skeleton is a maximal (or assert-terminated) guessed dis run.
type Skeleton struct {
	Steps []SkeletonStep
	// Unsafe marks skeletons ending in a dis assert.
	Unsafe bool
}

// Skeletons enumerates dis-run skeletons by depth-first search over the
// macro-state space (memoized on state keys, so each macro state is expanded
// once). It returns the skeletons and whether enumeration was exhaustive
// under the maxPaths/MaxMacroStates caps.
func (v *Verifier) Skeletons(maxPaths int) ([]Skeleton, bool) {
	ex := newExec(v, nil)

	init := v.initState()
	// Saturation may already hit an env assert; skeleton consumers detect
	// that via the bad() rules, so we ignore the violation here.
	ex.saturate(init)

	var out []Skeleton
	complete := true
	seen := map[string]bool{init.key(): true}
	var path []SkeletonStep

	emit := func(unsafe bool) {
		if maxPaths > 0 && len(out) >= maxPaths {
			complete = false
			return
		}
		steps := make([]SkeletonStep, len(path))
		copy(steps, path)
		out = append(out, Skeleton{Steps: steps, Unsafe: unsafe})
	}
	// capped cuts the search off once the output cap is reached: continuing
	// to expand (and saturate) the remaining macro-state space could not
	// emit anything and is exactly the exponential part of the walk.
	capped := func() bool { return maxPaths > 0 && len(out) >= maxPaths }

	var dfs func(st *state)
	dfs = func(st *state) {
		if capped() {
			complete = false
			return
		}
		succs, viol := v.disSuccessorsTraced(st)
		if viol != nil {
			path = append(path, *viol)
			emit(true)
			path = path[:len(path)-1]
		}
		progressed := false
		for _, ts := range succs {
			if capped() {
				complete = false
				return
			}
			ex.saturate(ts.state)
			k := ts.state.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			progressed = true
			path = append(path, ts.step)
			dfs(ts.state)
			path = path[:len(path)-1]
		}
		if !progressed && viol == nil {
			emit(false)
		}
	}
	dfs(init)
	return out, complete
}

// tracedSucc pairs a successor macro state with its skeleton step.
type tracedSucc struct {
	state *state
	step  SkeletonStep
}

// disSuccessorsTraced mirrors disSuccessors but records skeleton steps. It
// returns the violating step (if a dis assert is enabled) separately.
func (v *Verifier) disSuccessorsTraced(st *state) ([]tracedSucc, *SkeletonStep) {
	var out []tracedSucc
	var viol *SkeletonStep

	emit := func(i int, th AThread, step SkeletonStep, update func(*state)) {
		ns := st.clone()
		ns.dis[i] = th
		if update != nil {
			update(ns)
		}
		out = append(out, tracedSucc{state: ns, step: step})
	}

	for i := range st.dis {
		cfg := st.dis[i]
		g := v.disCFG[i]
		for _, e := range g.Out[cfg.PC] {
			switch e.Op.Kind {
			case lang.OpNop:
				emit(i, AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log},
					SkeletonStep{Dis: i, Kind: lang.OpNop, TS: -1, ReadDisTS: -1}, nil)

			case lang.OpAssume:
				if e.Op.E.Eval(cfg.Regs) != 0 {
					emit(i, AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log},
						SkeletonStep{Dis: i, Kind: lang.OpAssume, TS: -1, ReadDisTS: -1}, nil)
				}

			case lang.OpAssertFail:
				if viol == nil {
					viol = &SkeletonStep{Dis: i, Kind: lang.OpAssertFail, TS: -1, ReadDisTS: -1, Assert: true}
				}

			case lang.OpAssign:
				regs := cfg.cloneRegs()
				regs[e.Op.Reg] = v.norm(e.Op.E.Eval(cfg.Regs))
				emit(i, AThread{PC: e.To, Regs: regs, View: cfg.View, Log: cfg.Log},
					SkeletonStep{Dis: i, Kind: lang.OpAssign, TS: -1, ReadDisTS: -1}, nil)

			case lang.OpLoad:
				for _, lt := range v.loadTargets(st, cfg.View, e.Op.Var, nil) {
					regs := cfg.cloneRegs()
					regs[e.Op.Reg] = lt.msg.Val
					step := SkeletonStep{
						Dis: i, Kind: lang.OpLoad, Var: e.Op.Var, Val: lt.msg.Val,
						TS: -1, ReadDisTS: -1,
					}
					if lt.msg.Env {
						m := *lt.msg
						step.ReadEnv = &m
					} else {
						step.ReadDisTS = lt.msg.TS.Floor()
					}
					log := &ReadLog{MsgKey: lt.msg.Key(), Prev: cfg.Log}
					emit(i, AThread{PC: e.To, Regs: regs, View: lt.view, Log: log}, step, nil)
				}

			case lang.OpStore:
				x := e.Op.Var
				d := v.norm(e.Op.E.Eval(cfg.Regs))
				for t := 1; t <= v.budget[x]; t++ {
					if Int(t) <= cfg.View[x] || !st.mem.Free(x, t) {
						continue
					}
					view := cfg.View.Clone()
					view[x] = Int(t)
					msg := AMsg{Var: x, TS: Int(t), Val: d, View: view}
					mc := msg
					step := SkeletonStep{
						Dis: i, Kind: lang.OpStore, Var: x, Val: d, TS: t,
						ReadDisTS: -1, Stored: &mc,
					}
					emit(i, AThread{PC: e.To, Regs: cfg.Regs, View: view, Log: cfg.Log}, step,
						func(ns *state) { ns.mem.Put(msg) })
				}

			case lang.OpCASOp:
				out = v.disCASTraced(st, i, cfg, e, out)
			}
		}
	}
	return out, viol
}

// disCASTraced mirrors disCAS with skeleton-step recording.
func (v *Verifier) disCASTraced(st *state, i int, cfg AThread, e lang.Edge, out []tracedSucc) []tracedSucc {
	x := e.Op.Var
	expect := v.norm(e.Op.E.Eval(cfg.Regs))
	newVal := v.norm(e.Op.E2.Eval(cfg.Regs))

	emit := func(th AThread, msg AMsg, step SkeletonStep) {
		ns := st.clone()
		ns.dis[i] = th
		ns.mem.Put(msg)
		out = append(out, tracedSucc{state: ns, step: step})
	}

	st.mem.Each(x, func(m AMsg) {
		u := m.TS.Floor()
		if m.TS < cfg.View[x] || m.Val != expect {
			return
		}
		if u+1 > v.budget[x] || !st.mem.Free(x, u+1) {
			return
		}
		view := cfg.View.Join(m.View)
		view[x] = Int(u + 1)
		msg := AMsg{Var: x, TS: Int(u + 1), Val: newVal, View: view}
		mc := msg
		log := &ReadLog{MsgKey: m.Key(), Prev: cfg.Log}
		emit(AThread{PC: e.To, Regs: cfg.Regs, View: view, Log: log}, msg, SkeletonStep{
			Dis: i, Kind: lang.OpCASOp, Var: x, Val: newVal, TS: u + 1,
			ReadDisTS: u, Stored: &mc,
		})
	})

	for _, me := range st.env.MsgsByVar[x] {
		m := me.Msg
		if m.Val != expect {
			continue
		}
		lo := m.TS.Floor()
		if f := cfg.View[x].Floor(); f > lo {
			lo = f
		}
		for t := lo + 1; t <= v.budget[x]; t++ {
			if !st.mem.Free(x, t) {
				continue
			}
			view := cfg.View.Join(m.View)
			view[x] = Int(t)
			msg := AMsg{Var: x, TS: Int(t), Val: newVal, View: view}
			mc, rc := msg, m
			log := &ReadLog{MsgKey: m.Key(), Prev: cfg.Log}
			emit(AThread{PC: e.To, Regs: cfg.Regs, View: view, Log: log}, msg, SkeletonStep{
				Dis: i, Kind: lang.OpCASOp, Var: x, Val: newVal, TS: t,
				ReadDisTS: -1, ReadEnv: &rc, Stored: &mc,
			})
		}
	}
	return out
}
