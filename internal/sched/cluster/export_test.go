package cluster

import "testing"

// UseReference switches every engine built until t ends onto the
// reference scorer: contention scores from fresh tori, routers and
// simulators instead of the memo and scenario.Run. Placement is not swapped: its reference lives in sched's
// own tests, which this package's test binary does not compile. The
// fast scorer is restored when t ends.
func UseReference(t testing.TB) {
	t.Helper()
	fastSec := patternSec
	patternSec = referencePatternSec
	t.Cleanup(func() { patternSec = fastSec })
}
