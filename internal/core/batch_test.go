package core

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// countTramp is a static trampoline for DelegateCall tests: p1 points to an
// atomic counter, p2 to an int64 increment.
func countTramp(_ int, p1, p2 unsafe.Pointer) {
	(*atomic.Int64)(p1).Add(*(*int64)(p2))
}

func TestDelegateCallExecutes(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2})
	var sum atomic.Int64
	inc := int64(3)
	rt.BeginIsolation()
	for i := 0; i < 100; i++ {
		rt.DelegateCall(uint64(i%4), countTramp, unsafe.Pointer(&sum), unsafe.Pointer(&inc))
	}
	rt.EndIsolation()
	if got := sum.Load(); got != 300 {
		t.Fatalf("sum = %d, want 300", got)
	}
	if st := rt.Stats(); st.Delegations != 100 {
		t.Fatalf("Delegations = %d, want 100", st.Delegations)
	}
}

func TestDelegateCallSequentialInline(t *testing.T) {
	rt := newTestRuntime(t, Config{Sequential: true})
	var sum atomic.Int64
	inc := int64(1)
	rt.BeginIsolation()
	if ctx := rt.DelegateCall(7, countTramp, unsafe.Pointer(&sum), unsafe.Pointer(&inc)); ctx != ProgramContext {
		t.Fatalf("sequential DelegateCall ran on ctx %d", ctx)
	}
	rt.EndIsolation()
	if sum.Load() != 1 {
		t.Fatal("sequential DelegateCall did not execute inline")
	}
	if st := rt.Stats(); st.InlineExecs != 1 {
		t.Fatalf("InlineExecs = %d, want 1", st.InlineExecs)
	}
}

func TestDelegateCallTraceFallback(t *testing.T) {
	// With tracing on, DelegateCall routes through the closure path so the
	// execution is recorded like any other delegated operation.
	rt := newTestRuntime(t, Config{Delegates: 1, Trace: true})
	var sum atomic.Int64
	inc := int64(1)
	rt.BeginIsolation()
	rt.DelegateCall(0, countTramp, unsafe.Pointer(&sum), unsafe.Pointer(&inc))
	rt.EndIsolation()
	if sum.Load() != 1 {
		t.Fatal("traced DelegateCall did not execute")
	}
	execs := 0
	for _, ev := range rt.TraceEvents() {
		if ev.Kind == TraceExec {
			execs++
		}
	}
	if execs != 1 {
		t.Fatalf("trace recorded %d execs, want 1", execs)
	}
}

func TestContextForDoesNotAssign(t *testing.T) {
	// ContextFor is a pure query: probing a set's placement (e.g. from a
	// stats path) must not burn the LeastLoaded assignment for the epoch.
	rt := newTestRuntime(t, Config{Delegates: 4, Policy: LeastLoaded})
	rt.BeginIsolation()
	predicted := rt.ContextFor(11)
	if got := recOwner(rt, 11); got != 0 {
		t.Fatalf("ContextFor assigned an owner (%d)", got)
	}
	// The first delegation with unchanged queue state lands on the
	// predicted context and records the sticky owner.
	if got := rt.Delegate(11, func(int) {}); got != predicted {
		t.Fatalf("Delegate placed set on %d, ContextFor predicted %d", got, predicted)
	}
	if got := recOwner(rt, 11); got != predicted {
		t.Fatalf("owner = %d, want %d", got, predicted)
	}
	rt.EndIsolation()
}

// startGated delegates a first operation that parks its delegate until the
// returned release function is called, and does not return before the
// operation is running (so the delegate's queue is observably empty and its
// context busy).
func startGated(rt *Runtime, set uint64) (release func()) {
	started := make(chan struct{})
	gate := make(chan struct{})
	rt.Delegate(set, func(int) {
		close(started)
		<-gate
	})
	<-started
	return func() { close(gate) }
}

// TestBatchFlushOnSync: operations queued behind a busy delegate have all
// executed when SyncContext returns.
func TestBatchFlushOnSync(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 1})
	rt.BeginIsolation()
	release := startGated(rt, 0)
	var ran atomic.Int64
	ctx := rt.Delegate(0, func(int) { ran.Add(1) })
	rt.Delegate(0, func(int) { ran.Add(1) }) // queued behind the gate
	rt.Delegate(0, func(int) { ran.Add(1) })
	release()
	rt.SyncContext(ctx)
	if got := ran.Load(); got != 3 {
		t.Fatalf("after SyncContext ran = %d, want 3 (queued ops lost)", got)
	}
	rt.EndIsolation()
}

func TestBatchFlushWhenDelegateDrains(t *testing.T) {
	// Operations queued behind a busy delegate run as soon as it catches
	// up, without waiting for a sync point.
	rt := newTestRuntime(t, Config{Delegates: 1})
	rt.BeginIsolation()
	release := startGated(rt, 0)
	var ran atomic.Int64
	rt.Delegate(0, func(int) { ran.Add(1) })
	rt.Delegate(0, func(int) { ran.Add(1) })
	rt.Delegate(0, func(int) { ran.Add(1) })
	release()
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() < 3 { // no further runtime call: the backlog drains on its own
		if time.Now().After(deadline) {
			t.Fatalf("queued ops stalled after the gate opened: ran = %d", ran.Load())
		}
		time.Sleep(time.Millisecond)
	}
	rt.Delegate(0, func(int) { ran.Add(1) }) // to a drained, possibly parked delegate
	for ran.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("op to a drained delegate stalled: ran = %d", ran.Load())
		}
		time.Sleep(time.Millisecond)
	}
	rt.EndIsolation()
}

func TestIdleDelegateGetsOpWithoutFlush(t *testing.T) {
	// Liveness: an operation delegated to an idle delegate must execute
	// without any subsequent runtime call (no sync, no epoch end).
	rt := newTestRuntime(t, Config{Delegates: 1})
	rt.BeginIsolation()
	var ran atomic.Bool
	rt.Delegate(0, func(int) { ran.Store(true) })
	deadline := time.Now().Add(5 * time.Second)
	for !ran.Load() {
		if time.Now().After(deadline) {
			t.Fatal("op delegated to an idle delegate never ran")
		}
		time.Sleep(time.Millisecond)
	}
	rt.EndIsolation()
}

// TestBatchingDisabled: the deprecated DelegateBatch setting has no
// effect, and the deprecated batch counters stay zero whatever it says.
func TestBatchingDisabled(t *testing.T) {
	for _, batch := range []int{0, 1, 64} {
		rt := newTestRuntime(t, Config{Delegates: 1, DelegateBatch: batch})
		rt.BeginIsolation()
		release := startGated(rt, 0)
		for i := 0; i < 50; i++ {
			rt.Delegate(0, func(int) {})
		}
		release()
		rt.EndIsolation()
		if st := rt.Stats(); st.BatchFlushes != 0 || st.BatchedOps != 0 {
			t.Fatalf("DelegateBatch=%d: batch stats nonzero: %+v", batch, st)
		}
	}
}

// BenchmarkCoreDelegate compares the closure path against the trampoline
// path at the engine level, on one pinned set so the delegation stream
// stresses a single lane.
func BenchmarkCoreDelegate(b *testing.B) {
	var sink atomic.Int64
	inc := int64(1)
	run := func(b *testing.B, cfg Config, call func(rt *Runtime)) {
		rt := New(cfg)
		defer rt.Terminate()
		rt.BeginIsolation()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call(rt)
		}
		b.StopTimer()
		rt.EndIsolation()
	}
	b.Run("closure", func(b *testing.B) {
		b.ReportAllocs()
		run(b, Config{Delegates: 4}, func(rt *Runtime) {
			rt.Delegate(1, func(int) { sink.Add(1) })
		})
	})
	b.Run("trampoline", func(b *testing.B) {
		b.ReportAllocs()
		run(b, Config{Delegates: 4}, func(rt *Runtime) {
			rt.DelegateCall(1, countTramp, unsafe.Pointer(&sink), unsafe.Pointer(&inc))
		})
	})
}
