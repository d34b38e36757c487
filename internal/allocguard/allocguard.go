// Package allocguard is the shared form of the repository's allocation
// guards: tests asserting that a warmed-up operation allocates nothing.
// `make alloc-guards` runs them.
package allocguard

import "testing"

// Require fails t if f, once warmed up, allocates. Under the race detector
// it skips: the race runtime allocates on the paths the guards count, which
// is why `make alloc-guards` runs them without it.
func Require(t *testing.T, name string, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race runtime allocates; `make alloc-guards` runs this un-raced")
	}
	for i := 0; i < 64; i++ { // warm-up: free lists, queue capacities and pools reach their sizes
		f()
	}
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s: %v allocs per run, want 0", name, n)
	}
}
