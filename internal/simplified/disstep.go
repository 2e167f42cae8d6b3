package simplified

import (
	"paramra/internal/lang"
)

// disSuccessors enumerates the macro-states reachable by one transition of a
// dis thread. Env saturation of the successors is the caller's job.
func (ex *exec) disSuccessors(st *state) ([]*state, *Violation) {
	v := ex.v
	// The result slice is exec scratch: callers consume it before the next
	// expansion on this exec. The successor states themselves escape; only
	// the slice header is recycled.
	out := ex.outBuf[:0]
	// emit clones, applies the thread step, and appends. It returns the
	// clone so store/CAS paths can insert their message directly — an
	// `update` closure here would allocate once per emitted successor.
	emit := func(i int, th AThread) *state {
		ns := ex.cloneState(st)
		ns.dis[i] = th
		ex.stats.DisTransitions++
		out = append(out, ns)
		return ns
	}

	for i := range st.dis {
		cfg := st.dis[i]
		g := v.disCFG[i]
		for _, e := range g.Out[cfg.PC] {
			switch e.Op.Kind {
			case lang.OpNop:
				emit(i, AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log})

			case lang.OpAssume:
				if e.Op.E.Eval(cfg.Regs) != 0 {
					emit(i, AThread{PC: e.To, Regs: cfg.Regs, View: cfg.View, Log: cfg.Log})
				}

			case lang.OpAssertFail:
				// Inert in Message Generation mode (§4.1).
				if v.opts.Goal == nil {
					ex.outBuf = out
					return out, &Violation{ByEnv: false, DisIndex: i, Log: cfg.Log}
				}

			case lang.OpAssign:
				regs := cfg.cloneRegs()
				regs[e.Op.Reg] = v.norm(e.Op.E.Eval(cfg.Regs))
				emit(i, AThread{PC: e.To, Regs: regs, View: cfg.View, Log: cfg.Log})

			case lang.OpLoad:
				lts := v.loadTargets(st, cfg.View, e.Op.Var, ex.ltBuf[:0])
				for _, lt := range lts {
					regs := cfg.cloneRegs()
					regs[e.Op.Reg] = lt.msg.Val
					log := &ReadLog{MsgKey: lt.key, Prev: cfg.Log}
					emit(i, AThread{PC: e.To, Regs: regs, View: lt.view, Log: log})
				}
				ex.ltBuf = lts[:0]

			case lang.OpStore:
				x := e.Op.Var
				d := v.norm(e.Op.E.Eval(cfg.Regs))
				for t := 1; t <= v.budget[x]; t++ {
					if Int(t) <= cfg.View[x] || !st.mem.Free(x, t) {
						continue
					}
					view := cfg.View.Clone()
					view[x] = Int(t)
					msg := &AMsg{Var: x, TS: Int(t), Val: d, View: view}
					msg.key = msg.Key()
					ex.recordDisMsg(msg.key, i, cfg.Log)
					emit(i, AThread{PC: e.To, Regs: cfg.Regs, View: view, Log: cfg.Log}).mem.put(msg)
				}

			case lang.OpCASOp:
				out = ex.disCAS(st, i, cfg, e, out)
			}
		}
	}
	ex.outBuf = out
	return out, nil
}

// disCAS enumerates compare-and-swap transitions of dis thread i. A CAS
// atomically loads a message with the expected value and stores the new
// value at the adjacent integer timestamp:
//
//   - reading a dis message at ts requires ts ≥ vw(x) and slot ts+1 free
//     (the paper's ts' = ts + 1 adjacency, which also blocks a second CAS
//     on the same message);
//   - reading an env message at u⁺ can use any free integer slot t with
//     t-1 ≥ max(u, ⌊vw(x)⌋): by Infinite Supply a clone of the message can
//     be lifted into region t-1 just below the slot, and the remaining env
//     messages relocate out of the gap (timestamp lifting, §3.1), so env
//     messages never block adjacency.
func (ex *exec) disCAS(st *state, i int, cfg AThread, e lang.Edge, out []*state) []*state {
	v := ex.v
	x := e.Op.Var
	expect := v.norm(e.Op.E.Eval(cfg.Regs))
	newVal := v.norm(e.Op.E2.Eval(cfg.Regs))

	emit := func(th AThread, msg *AMsg) {
		ns := ex.cloneState(st)
		ns.dis[i] = th
		ns.mem.put(msg)
		ex.stats.DisTransitions++
		out = append(out, ns)
	}

	// Case 1: CAS on a dis message.
	for _, m := range st.mem.VarMsgs(x) {
		u := m.TS.Floor()
		if m.TS < cfg.View[x] || m.Val != expect {
			continue
		}
		if u+1 > v.budget[x] || !st.mem.Free(x, u+1) {
			continue
		}
		view := cfg.View.Join(m.View)
		view[x] = Int(u + 1)
		msg := &AMsg{Var: x, TS: Int(u + 1), Val: newVal, View: view}
		msg.key = msg.Key()
		log := &ReadLog{MsgKey: m.Key(), Prev: cfg.Log}
		ex.recordDisMsg(msg.key, i, log)
		emit(AThread{PC: e.To, Regs: cfg.Regs, View: view, Log: log}, msg)
	}

	// Case 2: CAS on an env message.
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
			msg := &AMsg{Var: x, TS: Int(t), Val: newVal, View: view}
			msg.key = msg.Key()
			log := &ReadLog{MsgKey: m.Key(), Prev: cfg.Log}
			ex.recordDisMsg(msg.key, i, log)
			emit(AThread{PC: e.To, Regs: cfg.Regs, View: view, Log: log}, msg)
		}
	}
	return out
}
