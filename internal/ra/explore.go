package ra

import (
	"errors"
	"fmt"
	"strings"

	"paramra/internal/engine"
	"paramra/internal/obs"
)

// Limits bounds and configures an exploration. Zero values mean "no limit".
type Limits struct {
	// MaxStates caps the number of distinct states visited.
	MaxStates int
	// MaxDepth caps the length of explored computations.
	MaxDepth int
	// Symmetry enables symmetry reduction over the env replicas: states
	// that differ only by a permutation of the (identical) env threads are
	// identified. Sound and complete for safety — env replicas run the
	// same program and messages carry no thread identity — and often
	// exponentially smaller in the replica count.
	Symmetry bool
	// Workers is the number of exploration goroutines used by the
	// context-aware explorers (<= 0 selects GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives periodic engine stats snapshots from
	// the context-aware explorers.
	Progress func(engine.Stats)
	// Trace, when non-nil, is the parent span under which the context-aware
	// explorers record their engine run span ("concrete-explore" or
	// "deadlock-scan").
	Trace *obs.Span
	// Metrics, when non-nil, receives the engine's gauges and histograms.
	Metrics *obs.Registry
}

// ErrLimit is reported (wrapped) when exploration stops due to a limit
// before finding a violation and before exhausting the state space.
var ErrLimit = errors.New("exploration limit reached")

// Result is the outcome of exploring a fixed instance.
type Result struct {
	// Unsafe is true when an `assert false` transition is reachable.
	Unsafe bool
	// States is the number of distinct states visited.
	States int
	// Transitions is the number of transitions examined.
	Transitions int
	// Complete is true when the full (finite) state space was exhausted; if
	// false and Unsafe is false, the verdict is only "no violation found
	// within limits".
	Complete bool
	// Capped is true when MaxStates or MaxDepth pruned the search. A search
	// that was not capped visits what it would visit under larger limits:
	// exactly, on one worker; the same state set, when it is exhaustive.
	Capped bool
	// Witness is a violating computation (sequence of events from the
	// initial state), non-nil iff Unsafe.
	Witness []Event
	// Engine carries the engine-level counters (dedup hits, peak frontier,
	// wall time, workers) when the search ran on the parallel engine.
	Engine engine.Stats
	// Err is the context error when the search was cancelled, else nil.
	Err error
}

// Explore runs a breadth-first search of the instance's RA state space,
// looking for an `assert false` transition.
func (inst *Instance) Explore(lim Limits) Result {
	type node struct {
		state *State
		key   string
		depth int
	}
	init := inst.InitState()
	initKey := inst.stateKey(init, lim)
	// pred maps every visited state's key to its predecessor key and
	// incoming event, for witness reconstruction.
	pred := map[string]backEdge{initKey: {}}

	queue := []node{{state: init, key: initKey, depth: 0}}
	res := Result{States: 1}
	limited := false
	enc := engine.NewKeyEnc()

	for len(queue) > 0 && !res.Unsafe {
		n := queue[0]
		queue = queue[1:]
		if lim.MaxDepth > 0 && n.depth >= lim.MaxDepth {
			limited = true
			continue
		}
		inst.visit(n.state, func(ns *State, ev evRef) bool {
			res.Transitions++
			if ev.assert {
				res.Unsafe = true
				res.Witness = inst.witness(n.key, initKey, ev, func(k string) (backEdge, bool) {
					be, ok := pred[k]
					return be, ok
				})
				return false
			}
			enc.Reset()
			inst.appendStateKey(enc, ns, lim)
			if _, seen := pred[string(enc.Bytes())]; seen {
				return true
			}
			if lim.MaxStates > 0 && res.States >= lim.MaxStates {
				limited = true
				return true
			}
			sk := enc.String()
			pred[sk] = backEdge{prevKey: n.key, ev: ev}
			res.States++
			queue = append(queue, node{state: ns.Clone(), key: sk, depth: n.depth + 1})
			return true
		})
	}
	res.Complete = !limited && !res.Unsafe
	res.Capped = limited
	return res
}

// witness rebuilds the violating computation that ends with the assert
// event final fired from the state keyed lastKey, by walking the
// back-edges (looked up with get) to the initial state.
func (inst *Instance) witness(lastKey, initKey string, final evRef, get func(string) (backEdge, bool)) []Event {
	rev := []evRef{final}
	for k := lastKey; k != initKey; {
		be, ok := get(k)
		if !ok {
			break
		}
		rev = append(rev, be.ev)
		k = be.prevKey
	}
	out := make([]Event, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, inst.event(rev[i]))
	}
	return out
}

// ReachablePCs explores the instance and returns, per thread index, the set
// of CFG nodes that thread can reach. Used by the differential tests and the
// §4.3 experiments. Exploration respects lim; the boolean reports whether
// the state space was exhausted.
func (inst *Instance) ReachablePCs(lim Limits) ([]map[int]bool, bool) {
	init := inst.InitState()
	visited := map[string]bool{init.Key(): true}
	reach := make([]map[int]bool, len(inst.Threads))
	for i := range reach {
		reach[i] = map[int]bool{}
	}
	record := func(s *State) {
		for i, th := range s.Threads {
			reach[i][int(th.PC)] = true
		}
	}
	record(init)
	queue := []*State{init}
	states := 1
	complete := true
	enc := engine.NewKeyEnc()
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		inst.visit(s, func(ns *State, _ evRef) bool {
			enc.Reset()
			ns.appendKey(enc)
			if visited[string(enc.Bytes())] {
				return true
			}
			if lim.MaxStates > 0 && states >= lim.MaxStates {
				complete = false
				return true
			}
			visited[enc.String()] = true
			states++
			record(ns)
			queue = append(queue, ns.Clone())
			return true
		})
	}
	return reach, complete
}

// FormatWitness renders a violating computation for human consumption.
func FormatWitness(w []Event) string {
	var b strings.Builder
	for i, ev := range w {
		fmt.Fprintf(&b, "%3d. [%s] %s\n", i+1, ev.Name, ev.Op)
	}
	return b.String()
}
