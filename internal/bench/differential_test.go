package bench

import (
	"context"
	"testing"

	"paramra"
	"paramra/internal/engine"
	"paramra/internal/simplified"
)

// TestParallelMatchesSequentialCorpus is the determinism contract of the
// layered parallel engine: for every corpus entry and every worker count,
// VerifyContext must agree with the sequential Verify on the verdict,
// completeness, every statistic, the violation's read logs (the inputs of
// the §4.3 env-thread bound) and the env set and dis memory it snapshots,
// and the engine counters must agree across worker counts. The violation
// snapshot is what recycled state structs or a wrongly shared env set
// would corrupt first.
func TestParallelMatchesSequentialCorpus(t *testing.T) {
	for _, e := range Corpus() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			seqV, err := simplified.New(e.System(), simplified.Options{})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			seq := seqV.Verify()

			var first engine.Stats
			for _, workers := range []int{1, 2, 8} {
				parV, err := simplified.New(e.System(), simplified.Options{Workers: workers})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				par := parV.VerifyContext(context.Background())

				if par.Unsafe != seq.Unsafe || par.Complete != seq.Complete {
					t.Fatalf("j=%d: verdict (%v,%v) vs sequential (%v,%v)",
						workers, par.Unsafe, par.Complete, seq.Unsafe, seq.Complete)
				}
				if par.Stats != seq.Stats {
					t.Errorf("j=%d: stats %+v vs sequential %+v", workers, par.Stats, seq.Stats)
				}
				pe := par.Engine
				if workers == 1 {
					first = pe
				} else if pe.States != first.States || pe.Transitions != first.Transitions || pe.DedupHits != first.DedupHits {
					t.Errorf("j=%d: engine states/transitions/dedup %d/%d/%d vs j=1 %d/%d/%d", workers,
						pe.States, pe.Transitions, pe.DedupHits, first.States, first.Transitions, first.DedupHits)
				}
				if (par.Violation == nil) != (seq.Violation == nil) {
					t.Fatalf("j=%d: violation presence differs", workers)
				}
				if par.Violation != nil {
					pv, sv := par.Violation, seq.Violation
					if pv.ByEnv != sv.ByEnv || pv.DisIndex != sv.DisIndex {
						t.Errorf("j=%d: violation source (%v,%d) vs (%v,%d)",
							workers, pv.ByEnv, pv.DisIndex, sv.ByEnv, sv.DisIndex)
					}
					if got, want := pv.Env.Fingerprint(), sv.Env.Fingerprint(); got != want {
						t.Errorf("j=%d: violation env fingerprint %x vs %x", workers, got, want)
					}
					if got, want := pv.Mem.Key(), sv.Mem.Key(); got != want {
						t.Errorf("j=%d: violation dis memory %q vs %q", workers, got, want)
					}
					if got, want := logKeys(pv.Log), logKeys(sv.Log); !equalStrings(got, want) {
						t.Errorf("j=%d: violating read log %v vs %v", workers, got, want)
					}
					for i := range sv.DisLogs {
						if got, want := logKeys(pv.DisLogs[i]), logKeys(sv.DisLogs[i]); !equalStrings(got, want) {
							t.Errorf("j=%d: dis %d read log %v vs %v", workers, i, got, want)
						}
					}
					if len(pv.DisMsgLogs) != len(sv.DisMsgLogs) {
						t.Errorf("j=%d: provenance map size %d vs %d",
							workers, len(pv.DisMsgLogs), len(sv.DisMsgLogs))
					}
					for k, sg := range sv.DisMsgLogs {
						pg, ok := pv.DisMsgLogs[k]
						if !ok {
							t.Errorf("j=%d: provenance missing key %q", workers, k)
							continue
						}
						if pg.DisIndex != sg.DisIndex || !equalStrings(logKeys(pg.Log), logKeys(sg.Log)) {
							t.Errorf("j=%d: provenance of %q differs", workers, k)
						}
					}
				}
			}
		})
	}
}

// TestVerifyDedupHitsPinned pins the engine's duplicate count on three
// corpus systems with many same-layer duplicates. Every duplicate is
// counted when commit offers it to the visited set, so a change to how the
// fixpoint deduplicates must leave these figures unchanged.
func TestVerifyDedupHitsPinned(t *testing.T) {
	want := map[string]int64{
		"peterson-ra":          65104,
		"peterson-ra-rmwfence": 56176,
		"lamport-2-ra":         38520,
	}
	for _, e := range Corpus() {
		w, ok := want[e.Name]
		if !ok {
			continue
		}
		delete(want, e.Name)
		res, err := paramra.Verify(context.Background(), e.System(), paramra.Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if res.Stats.DedupHits != w {
			t.Errorf("%s: DedupHits = %d, want %d", e.Name, res.Stats.DedupHits, w)
		}
	}
	for name := range want {
		t.Errorf("corpus entry %s not found", name)
	}
}

func logKeys(l *simplified.ReadLog) []string {
	if l == nil {
		return nil
	}
	return l.Keys()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
