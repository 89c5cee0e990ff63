package core

import (
	"runtime"
	"testing"
)

// flatEngineNewBytes is the heap a Runtime cost to build before the flat
// engine was folded into the lane engine: TotalAlloc of
// New(Config{Delegates: 1, MaxDelegates: 64}) on Go 1.24, linux/amd64
// (1,221,856–1,222,432 B over five runs). The flat engine pre-built one
// 256-slot ring per delegate of capacity; the lane engine must stay in
// that class, which is why delegate-producer lanes are built lazily.
const flatEngineNewBytes = 1222432

// newAllocBytes returns the smallest TotalAlloc delta of building cfg over
// a few runs (the minimum filters allocations other goroutines make while
// one is measured).
func newAllocBytes(cfg Config) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt := New(cfg)
		runtime.ReadMemStats(&after)
		rt.Terminate()
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// TestNewMemoryFootprint pins what a runtime with a 64-delegate capacity
// costs to build: within 2x of the flat engine it replaced, with or
// without Recursive. An eagerly built lane matrix is O(MaxDelegates²)
// rings — 81 MB here — so a regression to eager lanes fails by 30x.
func TestNewMemoryFootprint(t *testing.T) {
	for _, cfg := range []Config{
		{Delegates: 1, MaxDelegates: 64},
		{Delegates: 1, MaxDelegates: 64, Recursive: true},
	} {
		got := newAllocBytes(cfg)
		t.Logf("Recursive=%v: New allocated %d B (flat engine: %d B)", cfg.Recursive, got, flatEngineNewBytes)
		if got > 2*flatEngineNewBytes {
			t.Errorf("Recursive=%v: New allocated %d B, want <= %d (2x the flat engine's %d B)",
				cfg.Recursive, got, 2*flatEngineNewBytes, flatEngineNewBytes)
		}
	}
}

// TestQueueDepths: a delegate blocked inside an operation with k more
// operations queued behind it reports a backlog of at least k, and idle
// delegates report zero — in every placement configuration.
func TestQueueDepths(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"static", Config{Delegates: 3}},
		{"least-loaded", Config{Delegates: 3, Policy: LeastLoaded}},
		{"stealing", Config{Delegates: 3, Policy: LeastLoaded, Stealing: true}},
		{"recursive", Config{Delegates: 3, Recursive: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newTestRuntime(t, tc.cfg)
			rt.BeginIsolation()
			defer rt.EndIsolation()
			release := startGated(rt, 7)
			defer release()
			owner := rt.ContextFor(7)
			for i := 0; i < k; i++ {
				rt.Delegate(7, func(int) {})
			}
			depths := rt.QueueDepths(nil)
			if len(depths) != 3 {
				t.Fatalf("QueueDepths returned %d entries, want 3", len(depths))
			}
			for i, d := range depths {
				if i+1 == owner && d < k {
					t.Errorf("blocked delegate %d reports backlog %d, want >= %d", owner, d, k)
				}
				if i+1 != owner && d != 0 {
					t.Errorf("idle delegate %d reports backlog %d, want 0", i+1, d)
				}
			}
		})
	}
}
