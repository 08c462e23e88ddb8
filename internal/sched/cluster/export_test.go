package cluster

import (
	"testing"

	"netpart/internal/sched"
)

// UseReference switches every engine built until t ends onto the
// reference implementation: placement through sched's generic
// candidates()+Choose scan, contention scores from fresh tori,
// routers and simulators. The fast path is restored when t ends.
func UseReference(t testing.TB) {
	t.Helper()
	fastPolicy, fastSec := policyByName, patternSec
	policyByName = func(name string) (sched.PlacementPolicy, bool) {
		p, ok := fastPolicy(name)
		return referencePolicy{p}, ok
	}
	patternSec = referencePatternSec
	t.Cleanup(func() { policyByName, patternSec = fastPolicy, fastSec })
}
