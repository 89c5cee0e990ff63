package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spsc"
)

// waitExecuted polls delegate ctx's published program-lane progress until
// it covers the first n messages the program context sent it (the
// condition the rebalancer's safe-handoff check reads).
func waitExecuted(t *testing.T, rt *Runtime, ctx int, n uint64) {
	t.Helper()
	waitLaneExec(t, rt, ctx, ProgramContext, n)
}

// stealCfg is the non-recursive stealing fixture. Delegates=2 and the
// default VirtualDelegates=8 give vmap[v] = v%2+1: a set's first touch
// seeds even sets on delegate 1 and odd sets on delegate 2.
func stealCfg(delegates, threshold int) Config {
	return Config{
		Delegates:      delegates,
		Policy:         LeastLoaded,
		Stealing:       true,
		StealThreshold: threshold,
	}
}

// TestStealHandsOffQuiescentSet builds the canonical imbalance by hand:
// delegate 1 is pinned by a long-running operation while a second set —
// whose own operations have all completed — gets its next delegation. The
// rebalancer must hand that set, whole, to the idle delegate 2.
func TestStealHandsOffQuiescentSet(t *testing.T) {
	rt := newTestRuntime(t, stealCfg(2, 1))
	rt.BeginIsolation()
	defer rt.EndIsolation()

	// Set 100's first op gates delegate 1 (its static home; startGated
	// returns only once the op is running). Set 200's first op also lands
	// on delegate 1, its static home.
	release1 := startGated(rt, 100)
	var b1 atomic.Bool
	if ctx := rt.Delegate(200, func(int) { b1.Store(true) }); ctx != 1 {
		t.Fatalf("set 200 seeded on delegate %d, want 1", ctx)
	}
	release1()
	waitExecuted(t, rt, 1, 2) // both set-100 and set-200 ops done

	// Re-load delegate 1 with set 100 work so it is a steal victim
	// (occupancy 1 >= threshold 1) while set 200 is quiescent.
	release2 := startGated(rt, 100)
	ctx := rt.Delegate(200, func(int) {})
	release2()
	if ctx != 2 {
		t.Fatalf("quiescent set 200 delegated to %d, want stolen to idle delegate 2", ctx)
	}
	if got := recOwner(rt, 200); got != 2 {
		t.Fatalf("owner table has set 200 on %d, want 2", got)
	}
	if st := rt.Stats(); st.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", st.Steals)
	}
	// Sticky after the handoff: once the thief is below threshold again, the
	// next delegation stays with it.
	waitExecuted(t, rt, 2, 1)
	if ctx := rt.Delegate(200, func(int) {}); ctx != 2 {
		t.Fatalf("post-steal delegation went to %d, want sticky thief 2", ctx)
	}
}

// TestNoStealWhileSetInFlight pins the safety half: a set with an operation
// still queued or running on its owner must never be handed off, no matter
// how loaded the owner is — moving it would let the set's operations run out
// of program order.
func TestNoStealWhileSetInFlight(t *testing.T) {
	rt := newTestRuntime(t, stealCfg(2, 1))
	rt.BeginIsolation()
	defer rt.EndIsolation()

	release := startGated(rt, 100)
	var order []int
	rt.Delegate(200, func(int) { order = append(order, 1) }) // queued behind the gate
	// Owner occupancy is 2 (>= threshold), delegate 2 is idle, but set 200's
	// op is still queued on delegate 1: the delegation must follow it there.
	if ctx := rt.Delegate(200, func(int) { order = append(order, 2) }); ctx != 1 {
		t.Fatalf("in-flight set delegated to %d, want owner 1", ctx)
	}
	if st := rt.Stats(); st.Steals != 0 {
		t.Fatalf("Steals = %d, want 0 (set was in flight)", st.Steals)
	}
	release()
	rt.barrier()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("per-set order = %v, want [1 2]", order)
	}
}

// TestNoStealBelowThreshold: a lightly loaded owner keeps its sets even with
// idle peers — transient pipelining must not shuffle ownership around.
func TestNoStealBelowThreshold(t *testing.T) {
	rt := newTestRuntime(t, stealCfg(2, 100))
	rt.BeginIsolation()
	defer rt.EndIsolation()

	release1 := startGated(rt, 100)
	rt.Delegate(200, func(int) {})
	release1()
	waitExecuted(t, rt, 1, 2)
	release2 := startGated(rt, 100)
	if ctx := rt.Delegate(200, func(int) {}); ctx != 1 {
		t.Fatalf("set 200 moved to %d below threshold, want 1", ctx)
	}
	release2()
	if st := rt.Stats(); st.Steals != 0 {
		t.Fatalf("Steals = %d, want 0", st.Steals)
	}
}

// TestNoStealWithoutUnderloadedThief: when every peer is about as loaded as
// the victim, handing a set around buys nothing — the occupancy gap (thief
// at most a quarter of the victim) must hold.
func TestNoStealWithoutUnderloadedThief(t *testing.T) {
	rt := newTestRuntime(t, stealCfg(2, 1))
	rt.BeginIsolation()
	defer rt.EndIsolation()

	// Gate delegate 1, seed set 200 behind its gate (static home 1), then
	// gate delegate 2 with set 301 (static home 2) and pile a backlog of
	// set-301 work behind that second gate.
	release1 := startGated(rt, 100)
	rt.Delegate(200, func(int) {}) // queue(1) = 1
	release2 := startGated(rt, 301)
	if got := recOwner(rt, 301); got != 2 {
		t.Fatalf("set 301 seeded on %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		rt.Delegate(301, func(int) {})
	}
	release1()
	waitExecuted(t, rt, 1, 2) // gate + set-200 op done: set 200 quiescent
	// Reload delegate 1 so it is a victim with occupancy 1.
	release3 := startGated(rt, 100)
	// The only candidate thief holds ~5 outstanding ops behind its gate:
	// 5*4 > 1, so no steal even though set 200 is quiescent and its owner
	// is at threshold.
	if ctx := rt.Delegate(200, func(int) {}); ctx != 1 {
		t.Fatalf("set 200 stolen to %d despite loaded thief, want 1", ctx)
	}
	if st := rt.Stats(); st.Steals != 0 {
		t.Fatalf("Steals = %d, want 0", st.Steals)
	}
	release3()
	release2()
}

// TestStealingConfigValidation: the rebalancer needs the LeastLoaded owner
// table and a single delegation producer.
func TestStealingConfigValidation(t *testing.T) {
	expectPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New did not panic", name)
			}
		}()
		New(cfg).Terminate()
	}
	expectPanic("static-mod", Config{Delegates: 2, Stealing: true})
	expectPanic("recursive", Config{Delegates: 2, Stealing: true, Recursive: true, Policy: StaticMod})
	// Sequential debug mode ignores stealing rather than rejecting it.
	rt := New(Config{Sequential: true, Stealing: true})
	rt.BeginIsolation()
	ran := false
	rt.Delegate(1, func(int) { ran = true })
	rt.EndIsolation()
	rt.Terminate()
	if !ran {
		t.Fatal("sequential runtime with Stealing did not execute inline")
	}
}

// TestStealThresholdDefault: the zero value derives the threshold from the
// queue capacity (cap/4, clamped to [MinStealThreshold, MaxStealThreshold])
// and an explicit setting always wins.
func TestStealThresholdDefault(t *testing.T) {
	for _, tc := range []struct {
		queueCap, explicit, want int
	}{
		{0, 0, spsc.DefaultCapacity / 4}, // default 256-slot ring -> 64
		{128, 0, 32},                     // in-range: cap/4
		{8, 0, MinStealThreshold},        // tiny ring clamps up
		{4096, 0, MaxStealThreshold},     // deep ring clamps down
		{0, 3, 3},                        // explicit override wins
		{8, 100, 100},                    // explicit override wins over clamp
	} {
		c := Config{Delegates: 2, Policy: LeastLoaded, Stealing: true,
			QueueCapacity: tc.queueCap, StealThreshold: tc.explicit}.withDefaults()
		if c.StealThreshold != tc.want {
			t.Errorf("QueueCapacity=%d StealThreshold=%d: derived %d, want %d",
				tc.queueCap, tc.explicit, c.StealThreshold, tc.want)
		}
	}
}

// TestStealStress repeats the gated handoff dance many times with work on
// both sets, checking per-set program order end to end. Run under -race this
// exercises the executed-counter synchronization between victim, program
// context, and thief on every iteration (the CI stealing-stress job).
func TestStealStress(t *testing.T) {
	rt := newTestRuntime(t, stealCfg(2, 1))
	var log100, log200 []int
	n100, n200 := 0, 0
	rt.BeginIsolation()
	for iter := 0; iter < 50; iter++ {
		release := startGated(rt, 100)
		for j := 0; j < 4; j++ {
			v := n200
			n200++
			rt.Delegate(200, func(int) { log200 = append(log200, v) })
		}
		v := n100
		n100++
		rt.Delegate(100, func(int) { log100 = append(log100, v) })
		release()
		// Quiesce both delegates so every iteration starts from a clean
		// occupancy state and the next gated op re-creates the imbalance.
		rt.barrier()
	}
	rt.EndIsolation()
	if len(log100) != n100 || len(log200) != n200 {
		t.Fatalf("lost operations: |log100|=%d want %d, |log200|=%d want %d",
			len(log100), n100, len(log200), n200)
	}
	for i, v := range log200 {
		if v != i {
			t.Fatalf("set 200 order broken at %d: got %d", i, v)
		}
	}
	for i, v := range log100 {
		if v != i {
			t.Fatalf("set 100 order broken at %d: got %d", i, v)
		}
	}
	if st := rt.Stats(); st.Steals == 0 {
		t.Fatal("stress run never performed a steal")
	}
}

// BenchmarkCoreDelegateSkewed is the paper's core imbalance scenario:
// dependence chains of very uneven length. 64 serialization sets enter the
// epoch with sticky owners from their (cheap) earlier chains — 16 "hot" sets
// all owned by delegate 1, 48 cold sets spread over the rest — and then 90%
// of the epoch's operations land on the hot sets. Without stealing, delegate
// 1 serializes ~90% of the work while its peers idle; with stealing, hot
// sets are handed to underloaded delegates at their first quiescent moment.
//
// The "blocking" variants give each operation a short sleep (a stand-in for
// I/O-bound delegate work), so rebalancing shows up in wall clock even on a
// single-CPU host — delegates overlap their blocked time. The "cpu" variants
// are pure compute: on a multi-core host they show the same shape; on one
// CPU total work is serialized regardless of placement, so expect them flat
// there (see BENCH_PR2.json).
func BenchmarkCoreDelegateSkewed(b *testing.B) {
	const (
		delegates = 4
		hotSets   = 16
		coldSets  = 48
		nOps      = 2000
	)
	var sink atomic.Uint64
	blockingOp := func(int) { time.Sleep(20 * time.Microsecond) }
	cpuOp := func(int) {
		x := uint64(1)
		for j := 0; j < 300; j++ {
			x = x*1664525 + 1013904223
		}
		sink.Add(x)
	}
	run := func(b *testing.B, stealing bool, op func(int)) {
		steals := uint64(0)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt := New(Config{Delegates: delegates, Policy: LeastLoaded, Stealing: stealing})
			rt.BeginIsolation()
			// Install the skewed sticky ownership the uneven earlier chains
			// would have left behind (lastPos 0: those chains completed).
			owners := rt.rec.steal.owners.Load()
			for s := 0; s < hotSets; s++ {
				owners.insert(uint64(s), newRecSetEntry(1, rt.entryProducers()))
			}
			for s := 0; s < coldSets; s++ {
				owners.insert(uint64(hotSets+s), newRecSetEntry(2+s%(delegates-1), rt.entryProducers()))
			}
			b.StartTimer()
			hot, cold := 0, 0
			for k := 0; k < nOps; k++ {
				if k%10 != 9 {
					rt.Delegate(uint64(hot%hotSets), op)
					hot++
				} else {
					rt.Delegate(uint64(hotSets+cold%coldSets), op)
					cold++
				}
			}
			rt.EndIsolation() // barrier: include completing the backlog
			b.StopTimer()
			steals += rt.Stats().Steals
			rt.Terminate()
		}
		b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
	}
	b.Run("blocking-nosteal", func(b *testing.B) { run(b, false, blockingOp) })
	b.Run("blocking-steal", func(b *testing.B) { run(b, true, blockingOp) })
	b.Run("cpu-nosteal", func(b *testing.B) { run(b, false, cpuOp) })
	b.Run("cpu-steal", func(b *testing.B) { run(b, true, cpuOp) })
}

// TestDrainBatchesCount: a backlog released at once must be consumed through
// the batched drain path, visible in the DrainedOps counter.
func TestDrainBatchesCount(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	rt.BeginIsolation()
	release := startGated(rt, 0)
	var ran atomic.Int64
	const n = 100
	for i := 0; i < n; i++ {
		rt.Delegate(0, func(int) { ran.Add(1) })
	}
	release()
	rt.EndIsolation()
	if got := ran.Load(); got != n {
		t.Fatalf("ran = %d, want %d", got, n)
	}
	st := rt.Stats()
	if st.DrainBatches == 0 || st.DrainedOps == 0 {
		t.Fatalf("drain counters zero after a %d-op backlog: %+v", n, st)
	}
	if st.DrainedOps < n/2 {
		t.Fatalf("DrainedOps = %d, want most of the %d-op backlog drained in runs", st.DrainedOps, n)
	}
}
