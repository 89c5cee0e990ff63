package core

import (
	"sync/atomic"
	"testing"
	"time"
)

func newTestRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt := New(cfg)
	t.Cleanup(rt.Terminate)
	return rt
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Delegates < 1 {
		t.Errorf("Delegates = %d, want >= 1", c.Delegates)
	}
	if c.VirtualDelegates < c.Delegates {
		t.Errorf("VirtualDelegates = %d < Delegates = %d", c.VirtualDelegates, c.Delegates)
	}
	if c.QueueCapacity <= 0 {
		t.Errorf("QueueCapacity = %d, want > 0", c.QueueCapacity)
	}
}

func TestAssignmentTable(t *testing.T) {
	cfg := Config{Delegates: 3, ProgramShare: 2, VirtualDelegates: 8}.withDefaults()
	vmap := buildAssignment(cfg)
	want := []int{0, 0, 1, 2, 3, 1, 2, 3}
	if len(vmap) != len(want) {
		t.Fatalf("len(vmap) = %d, want %d", len(vmap), len(want))
	}
	for i := range want {
		if vmap[i] != want[i] {
			t.Errorf("vmap[%d] = %d, want %d", i, vmap[i], want[i])
		}
	}
}

func TestSameSetSameContext(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	for set := uint64(0); set < 100; set++ {
		first := rt.ContextFor(set)
		for i := 0; i < 5; i++ {
			if got := rt.ContextFor(set); got != first {
				t.Fatalf("set %d: context changed %d -> %d", set, first, got)
			}
		}
	}
}

// TestPerSetOrdering is the central model property: operations in the same
// serialization set execute in program (delegation) order.
func TestPerSetOrdering(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	const sets = 16
	const opsPerSet = 2000
	results := make([][]int, sets)

	rt.BeginIsolation()
	for i := 0; i < opsPerSet; i++ {
		for s := 0; s < sets; s++ {
			s, i := s, i
			rt.Delegate(uint64(s), func(ctx int) {
				results[s] = append(results[s], i) // safe: one set = one context, serial
			})
		}
	}
	rt.EndIsolation()

	for s := 0; s < sets; s++ {
		if len(results[s]) != opsPerSet {
			t.Fatalf("set %d: %d ops, want %d", s, len(results[s]), opsPerSet)
		}
		for i, v := range results[s] {
			if v != i {
				t.Fatalf("set %d: op %d out of order (got %d)", s, i, v)
			}
		}
	}
}

func TestDifferentSetsRunConcurrently(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, VirtualDelegates: 2})
	rt.BeginIsolation()
	// Set 0 blocks until set 1 has run: only possible if they execute on
	// different contexts concurrently.
	release := make(chan struct{})
	done := make(chan struct{})
	rt.Delegate(0, func(ctx int) {
		<-release
		close(done)
	})
	rt.Delegate(1, func(ctx int) {
		close(release)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sets 0 and 1 did not run concurrently")
	}
	rt.EndIsolation()
}

func TestSyncContextWaitsForOutstandingWork(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2})
	var flag atomic.Bool
	rt.BeginIsolation()
	ctx := rt.Delegate(7, func(int) {
		time.Sleep(20 * time.Millisecond)
		flag.Store(true)
	})
	rt.SyncContext(ctx)
	if !flag.Load() {
		t.Fatal("SyncContext returned before delegated op completed")
	}
	rt.EndIsolation()
}

func TestSyncSetLeastLoadedUnknownSetNoop(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded})
	rt.BeginIsolation()
	rt.SyncSet(999) // never delegated: must not deadlock or assign
	if got := recOwner(rt, 999); got != 0 {
		t.Fatalf("SyncSet assigned owner %d", got)
	}
	rt.EndIsolation()
}

func TestLeastLoadedSticky(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4, Policy: LeastLoaded})
	rt.BeginIsolation()
	first := rt.ContextFor(5)
	for i := 0; i < 10; i++ {
		rt.Delegate(5, func(int) { time.Sleep(time.Millisecond) })
		if got := rt.ContextFor(5); got != first {
			t.Fatalf("LeastLoaded moved set mid-epoch: %d -> %d", first, got)
		}
	}
	rt.EndIsolation()
	// New epoch may choose a different owner; the table must reset.
	rt.BeginIsolation()
	if n := rt.rec.steal.owners.Load().count; n != 0 {
		t.Fatalf("owner table carries %d entries into the new epoch", n)
	}
	rt.EndIsolation()
}

func TestEndIsolationIsBarrier(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	var count atomic.Int64
	rt.BeginIsolation()
	for i := 0; i < 500; i++ {
		rt.Delegate(uint64(i), func(int) {
			time.Sleep(10 * time.Microsecond)
			count.Add(1)
		})
	}
	rt.EndIsolation()
	if got := count.Load(); got != 500 {
		t.Fatalf("after EndIsolation count = %d, want 500", got)
	}
}

func TestSequentialModeInline(t *testing.T) {
	rt := newTestRuntime(t, Config{Sequential: true})
	order := []int{}
	rt.BeginIsolation()
	for i := 0; i < 10; i++ {
		i := i
		rt.Delegate(uint64(i%3), func(ctx int) {
			if ctx != ProgramContext {
				t.Errorf("sequential mode ran on ctx %d", ctx)
			}
			order = append(order, i)
		})
	}
	rt.EndIsolation()
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential mode out of program order at %d: %d", i, v)
		}
	}
	st := rt.Stats()
	if st.InlineExecs != 10 || st.Delegations != 0 {
		t.Fatalf("stats = %+v, want 10 inline / 0 delegated", st)
	}
}

func TestProgramShareRunsInline(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, ProgramShare: 1, VirtualDelegates: 3})
	rt.BeginIsolation()
	ran := false
	// Virtual delegate 0 is the program context; set 0 maps there.
	if ctx := rt.Delegate(0, func(ctx int) { ran = ctx == ProgramContext }); ctx != ProgramContext {
		t.Fatalf("set 0 assigned to ctx %d, want program context", ctx)
	}
	if !ran {
		t.Fatal("program-share delegation did not run inline")
	}
	rt.EndIsolation()
}

func TestEpochCounting(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	if rt.Epoch() != 0 || rt.InIsolation() {
		t.Fatal("fresh runtime should be in aggregation epoch 0")
	}
	for i := 1; i <= 3; i++ {
		rt.BeginIsolation()
		if rt.Epoch() != uint64(i) || !rt.InIsolation() {
			t.Fatalf("epoch %d state wrong", i)
		}
		rt.EndIsolation()
	}
	if rt.Stats().Epochs != 3 {
		t.Fatalf("Epochs = %d, want 3", rt.Stats().Epochs)
	}
}

func TestNestedIsolationPanics(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	rt.BeginIsolation()
	defer rt.EndIsolation()
	defer func() {
		if recover() == nil {
			t.Fatal("nested BeginIsolation should panic")
		}
	}()
	rt.BeginIsolation()
}

func TestEndWithoutBeginPanics(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("EndIsolation without BeginIsolation should panic")
		}
	}()
	rt.EndIsolation()
}

func TestDelegateAfterTerminatePanics(t *testing.T) {
	rt := New(Config{Delegates: 1})
	rt.Terminate()
	defer func() {
		if recover() == nil {
			t.Fatal("Delegate after Terminate should panic")
		}
	}()
	rt.Delegate(0, func(int) {})
}

func TestTerminateIdempotent(t *testing.T) {
	rt := New(Config{Delegates: 2})
	rt.Terminate()
	rt.Terminate() // must not hang or panic
}

func TestTerminateDuringIsolationDrains(t *testing.T) {
	rt := New(Config{Delegates: 2})
	var count atomic.Int64
	rt.BeginIsolation()
	for i := 0; i < 100; i++ {
		rt.Delegate(uint64(i), func(int) { count.Add(1) })
	}
	rt.Terminate()
	if got := count.Load(); got != 100 {
		t.Fatalf("Terminate lost work: %d/100 ran", got)
	}
}

func TestRunParallel(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	var sum atomic.Int64
	tasks := make([]func(int), 20)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx int) {
			if ctx < 1 || ctx > 4 {
				t.Errorf("RunParallel task on ctx %d", ctx)
			}
			sum.Add(int64(i))
		}
	}
	rt.RunParallel(tasks)
	if got := sum.Load(); got != 190 {
		t.Fatalf("sum = %d, want 190", got)
	}
}

func TestRunParallelDuringIsolationPanics(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	rt.BeginIsolation()
	defer rt.EndIsolation()
	defer func() {
		if recover() == nil {
			t.Fatal("RunParallel during isolation should panic")
		}
	}()
	rt.RunParallel([]func(int){func(int) {}})
}

func TestPhaseAccounting(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	time.Sleep(5 * time.Millisecond) // aggregation
	rt.BeginIsolation()
	time.Sleep(5 * time.Millisecond) // isolation
	rt.EndIsolation()
	rt.EnterReduction()
	time.Sleep(5 * time.Millisecond) // reduction
	rt.ExitReduction()
	st := rt.Stats()
	for name, d := range map[string]time.Duration{
		"aggregation": st.Aggregation, "isolation": st.Isolation, "reduction": st.Reduction,
	} {
		if d < 4*time.Millisecond {
			t.Errorf("%s time = %v, want >= ~5ms", name, d)
		}
	}
	if st.Total() < 14*time.Millisecond {
		t.Errorf("total = %v, want >= ~15ms", st.Total())
	}
}

func TestSleepBarriers(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2})
	var done atomic.Bool
	rt.BeginIsolation()
	rt.Delegate(1, func(int) {
		time.Sleep(10 * time.Millisecond)
		done.Store(true)
	})
	rt.EndIsolation()
	rt.Sleep()
	if !done.Load() {
		t.Fatal("Sleep returned with outstanding work")
	}
}

func TestStatsCounters(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, ProgramShare: 1, VirtualDelegates: 4})
	rt.BeginIsolation()
	rt.Delegate(0, func(int) {}) // program share -> inline
	ctx := rt.Delegate(1, func(int) {})
	rt.SyncContext(ctx)
	rt.EndIsolation()
	st := rt.Stats()
	if st.InlineExecs != 1 {
		t.Errorf("InlineExecs = %d, want 1", st.InlineExecs)
	}
	if st.Delegations != 1 {
		t.Errorf("Delegations = %d, want 1", st.Delegations)
	}
	if st.Syncs != 1 {
		t.Errorf("Syncs = %d, want 1", st.Syncs)
	}
	if st.Barriers < 1 {
		t.Errorf("Barriers = %d, want >= 1", st.Barriers)
	}
}

func TestSyncSkipsCleanDelegates(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 4})
	rt.BeginIsolation()
	rt.Delegate(1, func(int) {})
	rt.EndIsolation()
	before := rt.Stats().Syncs
	rt.BeginIsolation()
	rt.SyncSet(1) // nothing delegated this epoch; dirty bit cleared by barrier
	rt.EndIsolation()
	if got := rt.Stats().Syncs; got != before {
		t.Errorf("Syncs = %d, want %d (clean delegate should be skipped)", got, before)
	}
}
