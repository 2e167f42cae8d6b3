package ra

import (
	"fmt"
	"sync"

	"paramra/internal/lang"
)

// Event records one transition of a computation for witness reporting.
type Event struct {
	Thread int    // index into Instance.Threads
	Name   string // thread name
	Op     string // rendered operation
	// Assert is true when the transition fires an `assert false`.
	Assert bool
}

// Succ is a successor state together with the event that produced it.
type Succ struct {
	State *State
	Event Event
}

// evRef is the string-free form of an Event that the explorers store on
// every visited-set back-edge: the thread, the CFG edge it took (its source
// pc and index in CFG.Out), the timestamp and value details of a load,
// store or CAS, and the assert flag. Instance.event renders it only when a
// witness is rebuilt.
type evRef struct {
	thread, pc, edge int32
	// ts is the position read (LD, CAS) or written (ST); val the value read
	// (LD).
	ts     int32
	val    lang.Val
	assert bool
}

// event renders r exactly as the successor enumeration of Figure 2 names
// its transitions: the operation, then "(ts N, val V)" for a load,
// "(ts N)" for a store and "(ts N->N+1)" for a CAS.
func (inst *Instance) event(r evRef) Event {
	info := inst.Threads[r.thread]
	op := info.CFG.Out[r.pc][r.edge].Op
	text := op.String(info.CFG.Prog.Regs, inst.Sys.Vars)
	switch op.Kind {
	case lang.OpLoad:
		text = fmt.Sprintf("%s  (ts %d, val %d)", text, r.ts, int(r.val))
	case lang.OpStore:
		text = fmt.Sprintf("%s  (ts %d)", text, r.ts)
	case lang.OpCASOp:
		text = fmt.Sprintf("%s  (ts %d->%d)", text, r.ts, r.ts+1)
	}
	return Event{Thread: int(r.thread), Name: info.Name, Op: text, Assert: r.assert}
}

// scratch is a worker's successor workspace: st is a copy of the state
// being expanded, carved from arenas that are reused from one expansion to
// the next, with one spare message slot per variable and one spare view
// (spare) for the message a store or CAS inserts. Applying a rule to it and
// encoding the result allocates nothing.
type scratch struct {
	st    State
	msgs  []Msg
	views []int
	regs  []lang.Val
	spare View
	// dirty is set once a store or CAS has changed st's memory; the next
	// rule reloads st first. Thread-local rules undo their own writes.
	dirty bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// load copies src into the scratch state.
func (sc *scratch) load(src *State) {
	nv := len(src.Mem)
	nmsg, nview, nreg := src.flatSize()
	nmsg += nv  // a spare slot per variable
	nview += nv // the inserted message's view
	sc.msgs = resize(sc.msgs, nmsg)
	sc.views = resize(sc.views, nview)
	sc.regs = resize(sc.regs, nreg)
	sc.st.Mem = resize(sc.st.Mem, nv)
	sc.st.Threads = resize(sc.st.Threads, len(src.Threads))
	rest := copyFlat(&sc.st, src, sc.msgs, sc.views, sc.regs, 1)
	sc.spare = rest[:nv:nv]
	sc.dirty = false
}

// resize returns b with length n, reusing its storage when it is big enough.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// forSuccessors enumerates every RA transition enabled in s — the global
// transition relation of Figure 2 (LD-GLOBAL, ST-GLOBAL, CAS-GLOBAL,
// UNLABELLED) over the positional-timestamp representation — in a fixed
// order: by thread, then CFG edge, then timestamp. Each successor is built
// in sc's scratch state and handed to fn together with its event; fn must
// not modify or retain ns (Clone it to keep it) and returns false to stop
// the enumeration. This is the only implementation of the transition rules.
func (inst *Instance) forSuccessors(s *State, sc *scratch, fn func(ns *State, ev evRef) bool) {
	sc.load(s)
	ns := &sc.st
	for ti := range s.Threads {
		th := &s.Threads[ti]
		nt := &ns.Threads[ti]
		for ei, e := range inst.Threads[ti].CFG.Out[th.PC] {
			ev := evRef{thread: int32(ti), pc: int32(th.PC), edge: int32(ei)}
			if sc.dirty {
				sc.load(s)
			}
			switch e.Op.Kind {
			case lang.OpNop, lang.OpAssume, lang.OpAssertFail, lang.OpAssign:
				if e.Op.Kind == lang.OpAssume && e.Op.E.Eval(th.Regs) == 0 {
					continue
				}
				ev.assert = e.Op.Kind == lang.OpAssertFail
				nt.PC = e.To
				if e.Op.Kind == lang.OpAssign {
					nt.Regs[e.Op.Reg] = inst.norm(e.Op.E.Eval(th.Regs))
				}
				ok := fn(ns, ev)
				nt.PC = th.PC
				copy(nt.Regs, th.Regs)
				if !ok {
					return
				}

			case lang.OpLoad:
				// LD: any message on Var at position ≥ the thread's view.
				v := e.Op.Var
				for pos := th.View[v]; pos < len(s.Mem[v]); pos++ {
					msg := s.Mem[v][pos]
					nt.PC = e.To
					nt.Regs[e.Op.Reg] = msg.Val
					for i, t := range msg.View {
						if t > nt.View[i] {
							nt.View[i] = t
						}
					}
					ev.ts, ev.val = int32(pos), msg.Val
					ok := fn(ns, ev)
					nt.PC = th.PC
					copy(nt.Regs, th.Regs)
					copy(nt.View, th.View)
					if !ok {
						return
					}
				}

			case lang.OpStore:
				// ST: insert at any unsealed gap strictly after the view.
				v := e.Op.Var
				d := inst.norm(e.Op.E.Eval(th.Regs))
				for pos := th.View[v] + 1; pos <= len(s.Mem[v]); pos++ {
					if s.Mem[v][pos-1].Sealed {
						continue
					}
					if sc.dirty {
						sc.load(s)
					}
					nt.PC = e.To
					mv := sc.spare
					copy(mv, th.View)
					mv[v] = pos
					ns.insert(v, pos, Msg{Val: d, View: mv})
					// The thread adopts the message view (vw <_x vw').
					copy(nt.View, mv)
					sc.dirty = true
					ev.ts = int32(pos)
					if !fn(ns, ev) {
						return
					}
				}

			case lang.OpCASOp:
				// CAS: read a matching message, write immediately after it,
				// and seal the gap so the pair stays adjacent forever.
				v := e.Op.Var
				expect := inst.norm(e.Op.E.Eval(th.Regs))
				newVal := inst.norm(e.Op.E2.Eval(th.Regs))
				for pos := th.View[v]; pos < len(s.Mem[v]); pos++ {
					msg := s.Mem[v][pos]
					if msg.Val != expect || msg.Sealed {
						continue
					}
					if sc.dirty {
						sc.load(s)
					}
					nt.PC = e.To
					mv := sc.spare
					copy(mv, th.View)
					for i, t := range msg.View {
						if t > mv[i] {
							mv[i] = t
						}
					}
					mv[v] = pos + 1
					ns.insert(v, pos+1, Msg{Val: newVal, View: mv})
					ns.Mem[v][pos].Sealed = true
					copy(nt.View, mv)
					sc.dirty = true
					ev.ts = int32(pos)
					if !fn(ns, ev) {
						return
					}
				}
			}
		}
	}
}

// Successors enumerates all RA transitions enabled in s (see
// forSuccessors), each as an independent state copy with its rendered
// event.
func (inst *Instance) Successors(s *State) []Succ {
	var out []Succ
	inst.visit(s, func(ns *State, ev evRef) bool {
		out = append(out, Succ{State: ns.Clone(), Event: inst.event(ev)})
		return true
	})
	return out
}

// visit runs forSuccessors on a pooled scratch workspace.
func (inst *Instance) visit(s *State, fn func(ns *State, ev evRef) bool) {
	sc := scratchPool.Get().(*scratch)
	inst.forSuccessors(s, sc, fn)
	scratchPool.Put(sc)
}
