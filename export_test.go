package paramra

import "context"

// VerifyScheduleForTest is Verify without the cache, with the prepass
// schedule's replay-round and fixpoint caps set to roundStates and
// fixpointStates instead of the package constants.
func VerifyScheduleForTest(ctx context.Context, sys *System, opts Options, roundStates, fixpointStates int) (Result, error) {
	return verifyScheduled(ctx, sys, opts.normalized(), roundStates, fixpointStates)
}
