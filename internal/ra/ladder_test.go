package ra_test

import (
	"context"
	"testing"

	"paramra/internal/lang"
	"paramra/internal/ra"
)

// cappedThenUnsafe has a capped rung below a violating one: with no env
// thread the dis threads' stores to y give rung 0 more than 64 states and
// no violation, while with one env thread the assert is reached after 44.
const cappedThenUnsafe = `
system capped { vars x y; domain 3; env e; dis d1; dis d2; dis d3 }
thread e { store x 1 }
thread d1 { regs a; a = load x; assume a == 1; assert false }
thread d2 { store y 1; store y 2; store y 1; store y 2 }
thread d3 { store y 2; store y 1; store y 2; store y 1 }
`

// TestLadderCappedRungs: a find above a capped rung is reported but the
// run counts as capped, since a larger cap could have found a violation at
// the lower rung first; StopAtCap ends the run at the capped rung.
func TestLadderCappedRungs(t *testing.T) {
	sys := lang.MustParseSystem(cappedThenUnsafe)
	l := ra.Ladder{MinN: 0, MaxN: 2, MaxStates: 64, Symmetry: true, Workers: 1}
	lr, err := l.Run(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Rungs) != 2 || !lr.Rungs[0].Capped || lr.Rungs[1].Capped || !lr.Unsafe || lr.N != 1 {
		t.Fatalf("rungs %+v, unsafe=%v n=%d; want rung 0 capped, rung 1 unsafe uncapped", lr.Rungs, lr.Unsafe, lr.N)
	}
	if !lr.Capped() {
		t.Error("a run with a capped rung must report Capped")
	}

	l.StopAtCap = true
	lr, err = l.Run(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Rungs) != 1 || !lr.Rungs[0].Capped || lr.Unsafe {
		t.Fatalf("StopAtCap: rungs %+v, unsafe=%v; want only the capped rung 0", lr.Rungs, lr.Unsafe)
	}

	// Uncapped, every rung runs as under any larger cap: rung 0 is
	// exhausted and rung 1 finds the violation after the same 44 states.
	l = ra.Ladder{MinN: 0, MaxN: 2, MaxStates: 30_000, Symmetry: true, Workers: 1}
	lr, err = l.Run(context.Background(), sys)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Capped() || !lr.Rungs[0].Complete || !lr.Unsafe || lr.N != 1 || lr.Rungs[1].States != 44 {
		t.Fatalf("uncapped: rungs %+v, unsafe=%v n=%d", lr.Rungs, lr.Unsafe, lr.N)
	}
}
