package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// gridExpand builds a synthetic search space: states are (x, y) grid points
// reachable by incrementing either coordinate up to n. The space has
// (n+1)^2 states and heavy cross-path dedup, exercising the sharded set.
func gridExpand(n int) func(s [2]int, key string, depth int, buf []Succ[[2]int, struct{}]) []Succ[[2]int, struct{}] {
	return func(s [2]int, key string, depth int, buf []Succ[[2]int, struct{}]) []Succ[[2]int, struct{}] {
		out := buf
		for d := 0; d < 2; d++ {
			ns := s
			ns[d]++
			if ns[d] <= n {
				out = append(out, Succ[[2]int, struct{}]{State: ns, Key: fmt.Sprintf("%d,%d", ns[0], ns[1])})
			}
		}
		return out
	}
}

func TestExploreGridCounts(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 2, 8} {
		out := Explore(context.Background(), Config{Workers: workers}, NewShardedMap[struct{}](),
			[2]int{0, 0}, "0,0", struct{}{}, gridExpand(n))
		if !out.Complete || out.Halted {
			t.Fatalf("workers=%d: outcome %+v", workers, out)
		}
		want := int64((n + 1) * (n + 1))
		if out.Stats.States != want {
			t.Errorf("workers=%d: states=%d want %d", workers, out.Stats.States, want)
		}
		// Every non-root admission and every dedup hit is one examined edge.
		if got := out.Stats.States - 1 + out.Stats.DedupHits; got != out.Stats.Transitions {
			t.Errorf("workers=%d: states+dedup=%d != transitions=%d (grid has no other edges)",
				workers, got, out.Stats.Transitions)
		}
	}
}

func TestExploreHaltFirstWins(t *testing.T) {
	// A line of states with a halting edge at the end.
	expand := func(s int, key string, depth int, buf []Succ[int, struct{}]) []Succ[int, struct{}] {
		if s == 10 {
			return append(buf, Succ[int, struct{}]{Halt: true, Tag: "boom"})
		}
		return append(buf, Succ[int, struct{}]{State: s + 1, Key: fmt.Sprintf("%d", s+1)})
	}
	for _, workers := range []int{1, 4} {
		out := Explore(context.Background(), Config{Workers: workers}, NewShardedMap[struct{}](), 0, "0", struct{}{}, expand)
		if !out.Halted || out.Complete {
			t.Fatalf("workers=%d: expected halt, got %+v", workers, out)
		}
		if out.HaltTag != "boom" || out.HaltParent != "10" {
			t.Errorf("workers=%d: halt tag/parent = %v/%q", workers, out.HaltTag, out.HaltParent)
		}
	}
}

func TestExploreStateCapExact(t *testing.T) {
	out := Explore(context.Background(), Config{Workers: 4, MaxStates: 100}, NewShardedMap[struct{}](),
		[2]int{0, 0}, "0,0", struct{}{}, gridExpand(1000))
	if out.Complete || !out.Capped {
		t.Fatalf("capped run reported complete: %+v", out)
	}
	if out.Stats.States != 100 {
		t.Errorf("state cap overshot: %d", out.Stats.States)
	}
}

func TestExploreContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var expanded atomic.Int64
	expand := func(s int, key string, depth int, buf []Succ[int, struct{}]) []Succ[int, struct{}] {
		if expanded.Add(1) == 50 {
			cancel()
		}
		time.Sleep(time.Microsecond)
		return append(buf,
			Succ[int, struct{}]{State: 2 * s, Key: fmt.Sprintf("%d", 2*s)},
			Succ[int, struct{}]{State: 2*s + 1, Key: fmt.Sprintf("%d", 2*s+1)},
		)
	}
	out := Explore(ctx, Config{Workers: 4}, NewShardedMap[struct{}](), 1, "1", struct{}{}, expand)
	if out.Err == nil || out.Complete {
		t.Fatalf("cancelled run reported complete: %+v", out)
	}
}

func TestExploreMaxDepth(t *testing.T) {
	expand := func(s int, key string, depth int, buf []Succ[int, struct{}]) []Succ[int, struct{}] {
		return append(buf, Succ[int, struct{}]{State: s + 1, Key: fmt.Sprintf("%d", s+1)})
	}
	out := Explore(context.Background(), Config{Workers: 2, MaxDepth: 5}, NewShardedMap[struct{}](), 0, "0", struct{}{}, expand)
	if out.Complete || !out.Capped {
		t.Fatalf("depth-capped run reported complete: %+v", out)
	}
	if out.Stats.States > 7 {
		t.Errorf("depth cap ignored: %d states", out.Stats.States)
	}
}

func TestExplorePredChainWitness(t *testing.T) {
	// Values store the predecessor key; the chain must be walkable back to
	// the root after the run.
	type pred struct{ prev string }
	expand := func(s int, key string, depth int, buf []Succ[int, pred]) []Succ[int, pred] {
		if s == 6 {
			return append(buf, Succ[int, pred]{Halt: true, Tag: s})
		}
		return append(buf, Succ[int, pred]{State: s + 2, Key: fmt.Sprintf("%d", s+2), Val: pred{prev: key}})
	}
	visited := NewShardedMap[pred]()
	out := Explore(context.Background(), Config{Workers: 3}, visited, 0, "0", pred{}, expand)
	if !out.Halted {
		t.Fatal("no halt")
	}
	steps := 0
	for k := out.HaltParent; k != "0"; steps++ {
		p, ok := visited.Get(k)
		if !ok {
			t.Fatalf("broken pred chain at %q", k)
		}
		k = p.prev
	}
	if steps != 3 {
		t.Errorf("pred chain length = %d, want 3", steps)
	}
}

func TestLayeredDeterministicAcrossWorkers(t *testing.T) {
	// Expansion yields successors whose commit order determines a recorded
	// trace; the trace must be identical for every worker count.
	run := func(workers int) ([]string, Outcome) {
		var trace []string
		expand := func(s [2]int) [][2]int {
			var out [][2]int
			for d := 0; d < 2; d++ {
				ns := s
				ns[d]++
				if ns[d] <= 12 {
					out = append(out, ns)
				}
			}
			return out
		}
		commit := func(i int, s [2]int, succs [][2]int, adm *Admitter[[2]int]) any {
			adm.AddTransitions(int64(len(succs)))
			for _, ns := range succs {
				key := fmt.Sprintf("%d,%d", ns[0], ns[1])
				if adm.Add(key, ns) {
					trace = append(trace, key)
				}
			}
			return nil
		}
		out := Layered(context.Background(), Config{Workers: workers}, [2]int{0, 0}, "0,0", expand, commit)
		return trace, out
	}
	base, baseOut := run(1)
	for _, workers := range []int{2, 8} {
		got, out := run(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: trace length %d vs %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: admission order diverges at %d: %q vs %q", workers, i, got[i], base[i])
			}
		}
		if out.Stats.States != baseOut.Stats.States || out.Stats.Transitions != baseOut.Stats.Transitions {
			t.Errorf("workers=%d: stats diverge: %+v vs %+v", workers, out.Stats, baseOut.Stats)
		}
	}
}

func TestLayeredHaltFirstInOrder(t *testing.T) {
	// Two items of the same layer can halt; the lower index must win for
	// every worker count.
	expand := func(s int) int { return s }
	commit := func(i int, s int, e int, adm *Admitter[int]) any {
		if depthOf(s) == 3 {
			return fmt.Sprintf("halt-%d", i)
		}
		adm.Add(fmt.Sprintf("%d", 2*s), 2*s)
		adm.Add(fmt.Sprintf("%d", 2*s+1), 2*s+1)
		return nil
	}
	for _, workers := range []int{1, 2, 8} {
		out := Layered(context.Background(), Config{Workers: workers}, 1, "1", expand, commit)
		if !out.Halted || out.HaltTag != "halt-0" {
			t.Errorf("workers=%d: halt tag %v, want halt-0", workers, out.HaltTag)
		}
	}
}

func depthOf(s int) int {
	d := 0
	for s > 1 {
		s /= 2
		d++
	}
	return d
}

func TestShardedMapBasics(t *testing.T) {
	sm := NewShardedMap[int]()
	if !sm.TryPut("a", 1) || sm.TryPut("a", 2) {
		t.Fatal("TryPut semantics wrong")
	}
	if v, ok := sm.Get("a"); !ok || v != 1 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if _, ok := sm.Get("b"); ok {
		t.Fatal("phantom key")
	}
	for i := 0; i < 1000; i++ {
		sm.TryPut(fmt.Sprintf("k%d", i), i)
	}
	if sm.Len() != 1001 {
		t.Fatalf("Len = %d", sm.Len())
	}
}
