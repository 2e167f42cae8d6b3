package ra

import "paramra/internal/engine"

// DeadlockReport describes blocking states of a fixed instance: reachable
// configurations from which no transition is enabled although some thread
// has not finished its program (it is stuck in an assume that can never
// fire — e.g. a barrier waiting for a release that never comes).
type DeadlockReport struct {
	// Deadlocks is the number of reachable states with no enabled
	// transition and at least one unfinished thread.
	Deadlocks int
	// Terminal is the number of reachable states with no enabled
	// transition where every thread is at its CFG exit.
	Terminal int
	// Complete is true when the state space was exhausted.
	Complete bool
	// Example is one deadlocked state rendered for diagnostics ("" if none).
	Example string
	// StuckThreads lists, for the example state, the names of the
	// unfinished threads.
	StuckThreads []string
}

// FindDeadlocks explores the instance and classifies its sink states.
// Assert transitions terminate exploration of their branch but are not
// counted as deadlocks.
func (inst *Instance) FindDeadlocks(lim Limits) DeadlockReport {
	init := inst.InitState()
	visited := map[string]bool{init.Key(): true}
	queue := []*State{init}
	rep := DeadlockReport{Complete: true}
	states := 1

	atExit := func(s *State, ti int) bool {
		info := inst.Threads[ti]
		// A thread is finished when no edges leave its pc — for compiled
		// programs that is exactly the exit node, but choice joins can
		// produce other sink nodes too; treat any out-degree-0 pc whose
		// node is the CFG exit as finished.
		return len(info.CFG.Out[s.Threads[ti].PC]) == 0
	}

	enc := engine.NewKeyEnc()
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		enabled := 0
		inst.visit(s, func(ns *State, ev evRef) bool {
			enabled++
			if ev.assert {
				return true
			}
			enc.Reset()
			ns.appendKey(enc)
			if visited[string(enc.Bytes())] {
				return true
			}
			if lim.MaxStates > 0 && states >= lim.MaxStates {
				rep.Complete = false
				return true
			}
			visited[enc.String()] = true
			states++
			queue = append(queue, ns.Clone())
			return true
		})
		if enabled > 0 {
			continue
		}
		var stuck []string
		for ti := range s.Threads {
			if !atExit(s, ti) {
				stuck = append(stuck, inst.Threads[ti].Name)
			}
		}
		if len(stuck) > 0 {
			rep.Deadlocks++
			if rep.Example == "" {
				rep.Example = s.String()
				rep.StuckThreads = stuck
			}
		} else {
			rep.Terminal++
		}
	}
	return rep
}
