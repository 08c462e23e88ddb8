package iso

import (
	"testing"

	"netpart/internal/lru"
)

// UseBisectionCache swaps the bisection cache for an empty one of the
// given capacity until t ends.
func UseBisectionCache(t testing.TB, capacity int) {
	t.Helper()
	saved := bisectionCache
	bisectionCache = lru.New[string, CuboidResult](capacity)
	t.Cleanup(func() { bisectionCache = saved })
}
