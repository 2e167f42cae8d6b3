package ra

import (
	"fmt"
	"sort"

	"paramra/internal/engine"
	"paramra/internal/lang"
)

// LegacySuccessorsForTest enumerates the successors of s the way the
// explorer did before the scratch-state visitor: one full Clone per
// transition and the event text formatted eagerly. The differential corpus
// test holds Instance.Successors to it state by state.
func (inst *Instance) LegacySuccessorsForTest(s *State) []Succ {
	var out []Succ
	for ti := range s.Threads {
		out = inst.legacyThreadSuccessors(s, ti, out)
	}
	return out
}

func (inst *Instance) legacyThreadSuccessors(s *State, ti int, out []Succ) []Succ {
	info := inst.Threads[ti]
	th := &s.Threads[ti]
	regs := info.CFG.Prog.Regs
	vars := inst.Sys.Vars
	for _, e := range info.CFG.Out[th.PC] {
		ev := Event{Thread: ti, Name: info.Name, Op: e.Op.String(regs, vars)}
		switch e.Op.Kind {
		case lang.OpNop:
			ns := s.Clone()
			ns.Threads[ti].PC = e.To
			out = append(out, Succ{State: ns, Event: ev})

		case lang.OpAssume:
			if e.Op.E.Eval(th.Regs) != 0 {
				ns := s.Clone()
				ns.Threads[ti].PC = e.To
				out = append(out, Succ{State: ns, Event: ev})
			}

		case lang.OpAssertFail:
			ns := s.Clone()
			ns.Threads[ti].PC = e.To
			ev.Assert = true
			out = append(out, Succ{State: ns, Event: ev})

		case lang.OpAssign:
			ns := s.Clone()
			ns.Threads[ti].PC = e.To
			ns.Threads[ti].Regs[e.Op.Reg] = inst.norm(e.Op.E.Eval(th.Regs))
			out = append(out, Succ{State: ns, Event: ev})

		case lang.OpLoad:
			v := e.Op.Var
			for pos := th.View[v]; pos < len(s.Mem[v]); pos++ {
				msg := s.Mem[v][pos]
				ns := s.Clone()
				nt := &ns.Threads[ti]
				nt.PC = e.To
				nt.Regs[e.Op.Reg] = msg.Val
				nt.View = nt.View.Join(msg.View)
				lev := ev
				lev.Op = fmt.Sprintf("%s  (ts %d, val %d)", ev.Op, pos, int(msg.Val))
				out = append(out, Succ{State: ns, Event: lev})
			}

		case lang.OpStore:
			v := e.Op.Var
			d := inst.norm(e.Op.E.Eval(th.Regs))
			for pos := th.View[v] + 1; pos <= len(s.Mem[v]); pos++ {
				if s.Mem[v][pos-1].Sealed {
					continue
				}
				ns := s.Clone()
				nt := &ns.Threads[ti]
				nt.PC = e.To
				mv := nt.View.Clone()
				mv[v] = pos
				msg := Msg{Val: d, View: mv}
				ns.insert(v, pos, msg)
				nt.View = mv.Clone()
				sev := ev
				sev.Op = fmt.Sprintf("%s  (ts %d)", ev.Op, pos)
				out = append(out, Succ{State: ns, Event: sev})
			}

		case lang.OpCASOp:
			v := e.Op.Var
			expect := inst.norm(e.Op.E.Eval(th.Regs))
			newVal := inst.norm(e.Op.E2.Eval(th.Regs))
			for pos := th.View[v]; pos < len(s.Mem[v]); pos++ {
				msg := s.Mem[v][pos]
				if msg.Val != expect || msg.Sealed {
					continue
				}
				ns := s.Clone()
				nt := &ns.Threads[ti]
				nt.PC = e.To
				mv := nt.View.Join(msg.View)
				mv[v] = pos + 1
				stored := Msg{Val: newVal, View: mv}
				ns.insert(v, pos+1, stored)
				ns.Mem[v][pos].Sealed = true
				nt.View = mv.Clone()
				cev := ev
				cev.Op = fmt.Sprintf("%s  (ts %d->%d)", ev.Op, pos, pos+1)
				out = append(out, Succ{State: ns, Event: cev})
			}
		}
	}
	return out
}

// LegacySymKeyForTest is the symmetric state key as it was first built: one
// string per env-replica section, ordered with sort.Strings. State.SymKey
// must equal it byte for byte.
func LegacySymKeyForTest(s *State, nEnv int) string {
	enc := engine.NewKeyEnc()
	s.encodeMemKey(enc)
	envKeys := make([]string, 0, nEnv)
	tenc := engine.NewKeyEnc()
	for i := 0; i < nEnv && i < len(s.Threads); i++ {
		tenc.Reset()
		s.encodeThreadKey(tenc, i)
		envKeys = append(envKeys, tenc.String())
	}
	sort.Strings(envKeys)
	for _, k := range envKeys {
		enc.Raw([]byte(k))
	}
	for i := nEnv; i < len(s.Threads); i++ {
		s.encodeThreadKey(enc, i)
	}
	return enc.String()
}
