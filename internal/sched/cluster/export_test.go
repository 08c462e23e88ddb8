package cluster

import (
	"context"
	"testing"
)

// UseReference switches every engine built until t ends onto the
// reference scorer: contention scores from fresh tori, routers and
// flow sets instead of the closed form. Placement is not swapped: its
// reference lives in sched's own tests, which this package's test
// binary does not compile. The fast scorer is restored when t ends.
func UseReference(t testing.TB) {
	t.Helper()
	fastSec := patternSec
	patternSec = referencePatternSec
	t.Cleanup(func() { patternSec = fastSec })
}

// Step executes the next pending scheduler action and reports whether
// anything happened.
func (e *Engine) Step(ctx context.Context) (bool, error) {
	return e.st.Step(ctx)
}

// Idle reports whether no queued or running work remains.
func (e *Engine) Idle() bool { return e.st.Idle() }
