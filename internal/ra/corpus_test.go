package ra_test

import (
	"context"
	"math/rand"
	"testing"

	"paramra/internal/bench"
	"paramra/internal/ra"
)

func corpusInstance(tb testing.TB, name string, nEnv int) *ra.Instance {
	tb.Helper()
	for _, e := range bench.Corpus() {
		if e.Name != name {
			continue
		}
		inst, err := ra.NewInstance(e.System(), nEnv)
		if err != nil {
			tb.Fatal(err)
		}
		return inst
	}
	tb.Fatalf("no corpus entry %q", name)
	return nil
}

// TestSuccessorsMatchLegacyCorpus: from every reachable state (up to a cap
// per instance) of every corpus instance with at most two env threads, the
// visitor-based Successors yields exactly the legacy clone-per-transition
// successors — same order, so also the same multiset — compared by state
// key bytes and rendered event.
func TestSuccessorsMatchLegacyCorpus(t *testing.T) {
	const maxStates = 2000
	total := 0
	for _, e := range bench.Corpus() {
		for n := 0; n <= 2; n++ {
			if n > 0 && e.System().Env == nil {
				continue
			}
			inst := corpusInstance(t, e.Name, n)
			init := inst.InitState()
			seen := map[string]bool{init.Key(): true}
			queue := []*ra.State{init}
			for len(queue) > 0 {
				s := queue[0]
				queue = queue[1:]
				total++
				got := inst.Successors(s)
				want := inst.LegacySuccessorsForTest(s)
				if len(got) != len(want) {
					t.Fatalf("%s n=%d: %d successors, legacy %d\nstate:\n%s", e.Name, n, len(got), len(want), s)
				}
				for i := range got {
					gk, wk := got[i].State.Key(), want[i].State.Key()
					if gk != wk || got[i].Event != want[i].Event {
						t.Fatalf("%s n=%d: successor %d is (%+v, %x), legacy (%+v, %x)\nstate:\n%s",
							e.Name, n, i, got[i].Event, gk, want[i].Event, wk, s)
					}
					if !seen[gk] && len(seen) < maxStates {
						seen[gk] = true
						queue = append(queue, got[i].State)
					}
				}
			}
		}
	}
	t.Logf("compared the successors of %d states", total)
}

// TestSymKeyMatchesSortStrings: on random reachable states of barrier and
// mp-litmus with 2–4 env threads, SymKey is byte for byte the encoding that
// sorts per-replica key strings with sort.Strings.
func TestSymKeyMatchesSortStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"barrier", "mp-litmus"} {
		for n := 2; n <= 4; n++ {
			inst := corpusInstance(t, name, n)
			for walk := 0; walk < 50; walk++ {
				s := inst.InitState()
				for step := 0; step < 40; step++ {
					if got, want := s.SymKey(n), ra.LegacySymKeyForTest(s, n); got != want {
						t.Fatalf("%s n=%d walk %d step %d: SymKey %x, sort.Strings form %x", name, n, walk, step, got, want)
					}
					succs := inst.Successors(s)
					if len(succs) == 0 {
						break
					}
					s = succs[rng.Intn(len(succs))].State
				}
			}
		}
	}
}

// TestExhaustiveCountsPinned: the exhaustive state and transition counts of
// barrier and mp-litmus, with and without symmetry reduction, are those the
// explorer had before its successor path was rebuilt, at one and two
// workers. (barrier with four replicas and no symmetry, 323,168 states, is
// left out for time.)
func TestExhaustiveCountsPinned(t *testing.T) {
	type counts struct{ states, transitions int }
	cases := []struct {
		name      string
		n         int
		sym       bool
		wantCount counts
	}{
		{"barrier", 0, false, counts{4, 4}},
		{"barrier", 1, false, counts{33, 56}},
		{"barrier", 2, false, counts{466, 1104}},
		{"barrier", 3, false, counts{10379, 32952}},
		{"barrier", 0, true, counts{4, 4}},
		{"barrier", 1, true, counts{33, 56}},
		{"barrier", 2, true, counts{237, 563}},
		{"barrier", 3, true, counts{1785, 5725}},
		{"barrier", 4, true, counts{14029, 58282}},
		{"mp-litmus", 0, false, counts{2, 1}},
		{"mp-litmus", 1, false, counts{9, 10}},
		{"mp-litmus", 2, false, counts{78, 151}},
		{"mp-litmus", 3, false, counts{1193, 3418}},
		{"mp-litmus", 4, false, counts{28626, 109933}},
		{"mp-litmus", 0, true, counts{2, 1}},
		{"mp-litmus", 1, true, counts{9, 10}},
		{"mp-litmus", 2, true, counts{40, 78}},
		{"mp-litmus", 3, true, counts{204, 593}},
		{"mp-litmus", 4, true, counts{1216, 4749}},
	}
	for _, c := range cases {
		inst := corpusInstance(t, c.name, c.n)
		for _, w := range []int{1, 2} {
			r := inst.ExploreContext(context.Background(), ra.Limits{Symmetry: c.sym, Workers: w})
			if got := (counts{r.States, r.Transitions}); got != c.wantCount || !r.Complete || r.Unsafe {
				t.Errorf("%s n=%d symmetry=%v workers=%d: %+v complete=%v unsafe=%v, want %+v complete SAFE",
					c.name, c.n, c.sym, w, got, r.Complete, r.Unsafe, c.wantCount)
			}
		}
	}
}

// BenchmarkConcreteReplay is the prepass's heaviest replay instance:
// barrier with four env threads under symmetry reduction on one worker.
// scripts/bench-allocs.sh holds its allocs/op to a budget.
func BenchmarkConcreteReplay(b *testing.B) {
	inst := corpusInstance(b, "barrier", 4)
	b.Run("barrier-n4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := inst.ExploreContext(context.Background(), ra.Limits{Symmetry: true, Workers: 1})
			if r.States != 14029 {
				b.Fatalf("states %d, want 14029", r.States)
			}
		}
	})
}
