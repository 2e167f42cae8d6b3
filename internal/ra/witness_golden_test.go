package ra_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"paramra"
	"paramra/internal/absint"
	"paramra/internal/bench"
)

// witnessGoldenPath pins the witness text of every UNSAFE corpus entry. It
// was recorded before the explorer's successor path was rebuilt around the
// scratch-state visitor and lazy events; any byte of drift in event order,
// thread naming or the rendered "(ts …)" details fails the test.
const witnessGoldenPath = "testdata/witnesses.golden"

// corpusWitnessText renders, per UNSAFE corpus entry, the prepass replay's
// FormatWitness output and paramra.ConfirmViolation's witness, both on one
// worker so the engine's first-found violation is deterministic.
func corpusWitnessText(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	for _, e := range bench.Corpus() {
		if e.Want != bench.Unsafe {
			continue
		}
		sys := e.System()
		pre, err := absint.Prepass(ctx, sys, absint.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: prepass: %v", e.Name, err)
		}
		fmt.Fprintf(&b, "== %s replay: %s n=%d states=%d\n%s", e.Name, pre.Verdict, pre.EnvThreads, pre.ReplayStates, pre.Witness)

		opts := paramra.Options{Parallelism: 1, MaxStates: 200_000}
		res, err := paramra.Verify(ctx, sys, opts)
		if err != nil {
			t.Fatalf("%s: verify: %v", e.Name, err)
		}
		n, w, err := paramra.ConfirmViolation(ctx, sys, res, 4, opts)
		if err != nil {
			fmt.Fprintf(&b, "== %s confirm: %v\n", e.Name, err)
			continue
		}
		fmt.Fprintf(&b, "== %s confirm: n=%d\n%s", e.Name, n, w)
	}
	return b.String()
}

// TestCorpusWitnessGolden: replay and confirmation witnesses are byte-for-byte
// those of the golden file.
func TestCorpusWitnessGolden(t *testing.T) {
	want, err := os.ReadFile(witnessGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := corpusWitnessText(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("witness text differs from %s at line %d:\n got: %q\nwant: %q", witnessGoldenPath, i+1, g, w)
		}
	}
}
