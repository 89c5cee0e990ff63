package spsc

import (
	"runtime"
	"testing"
	"time"
)

// TestLaneRingFIFO: in-ring traffic round-trips in order with no spills.
func TestLaneRingFIFO(t *testing.T) {
	l := NewLane[int](8)
	for round := 0; round < 10; round++ { // multiple laps over the ring
		for i := 0; i < 8; i++ {
			if spilled := l.Push(round*8 + i); spilled {
				t.Fatalf("push %d spilled with free ring slots", i)
			}
		}
		for i := 0; i < 8; i++ {
			v, ok := l.TryPop()
			if !ok || v != round*8+i {
				t.Fatalf("pop %d = (%d, %v), want (%d, true)", i, v, ok, round*8+i)
			}
		}
	}
	if s := l.Spills(); s != 0 {
		t.Fatalf("Spills = %d, want 0", s)
	}
	if _, ok := l.TryPop(); ok {
		t.Fatal("pop on empty lane succeeded")
	}
}

// TestLaneSpillFIFO: overflow beyond the ring spills, and draining returns
// every value in push order across the ring/spill boundary. This is the
// self-delegation shape: producer and consumer are the same goroutine, so
// nothing drains between pushes and a bounded queue would deadlock.
func TestLaneSpillFIFO(t *testing.T) {
	l := NewLane[int](4)
	const n = 100
	for i := 0; i < n; i++ {
		l.Push(i)
	}
	if s := l.Spills(); s != n-4 {
		t.Fatalf("Spills = %d, want %d", s, n-4)
	}
	for i := 0; i < n; i++ {
		v, ok := l.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	if !l.Empty() {
		t.Fatal("lane not empty after full drain")
	}
}

// TestLaneSpillResume: after the consumer drains a spill completely, the
// producer returns to the zero-allocation ring and order is still FIFO.
func TestLaneSpillResume(t *testing.T) {
	l := NewLane[int](4)
	next := 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			l.Push(next)
			next++
		}
	}
	want := 0
	pop := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			v, ok := l.TryPop()
			if !ok || v != want {
				t.Fatalf("pop = (%d, %v), want (%d, true)", v, ok, want)
			}
			want++
		}
	}
	push(10) // 4 ring + 6 spill
	pop(10)
	spills := l.Spills()
	push(3) // back in the ring
	if l.Spills() != spills {
		t.Fatalf("Spills grew to %d after spill drained (ring not resumed)", l.Spills())
	}
	pop(3)
	// Partial spill drain must keep the producer spilling.
	push(6) // 4 ring + 2 spill
	pop(5)  // ring fully drained, one spill value left
	push(1) // must spill: FIFO would break if this entered the ring
	if l.Spills() != spills+3 {
		t.Fatalf("Spills = %d, want %d (push with undrained spill must spill)", l.Spills(), spills+3)
	}
	pop(2)
}

// TestLanePopBatchBoundaries: batch pops spanning the ring/spill boundary
// transfer in order, for dst sizes around the ring capacity.
func TestLanePopBatchBoundaries(t *testing.T) {
	for _, dstLen := range []int{1, 3, 4, 5, 16, 64} {
		l := NewLane[int](4)
		const n = 40
		for i := 0; i < n; i++ {
			l.Push(i)
		}
		dst := make([]int, dstLen)
		got := 0
		for got < n {
			k := l.PopBatch(dst)
			if k == 0 {
				t.Fatalf("dst=%d: PopBatch returned 0 with %d values left", dstLen, n-got)
			}
			for i := 0; i < k; i++ {
				if dst[i] != got+i {
					t.Fatalf("dst=%d: batch value %d = %d, want %d", dstLen, i, dst[i], got+i)
				}
			}
			got += k
		}
		if k := l.PopBatch(dst); k != 0 {
			t.Fatalf("dst=%d: PopBatch on empty lane returned %d", dstLen, k)
		}
	}
}

// TestLaneConcurrentSpill: a fast nonblocking producer against a slow
// consumer, racing spill-mode entry and exit; everything arrives in order.
func TestLaneConcurrentSpill(t *testing.T) {
	l := NewLane[int](8)
	const n = 50000
	go func() {
		for i := 0; i < n; i++ {
			l.Push(i)
		}
	}()
	dst := make([]int, 16)
	got := 0
	for got < n {
		k := l.PopBatch(dst)
		if k == 0 {
			time.Sleep(time.Microsecond)
			continue
		}
		for i := 0; i < k; i++ {
			if dst[i] != got+i {
				t.Fatalf("value %d = %d, want %d", got+i, dst[i], got+i)
			}
		}
		got += k
	}
	if !l.Empty() {
		t.Fatal("lane not empty after consuming all values")
	}
}

// TestLaneSpillRaceFIFO: a nonblocking producer racing a PopBatch consumer
// that never backs off, on tiny rings sharing one node pool — the shape of
// a delegate feeding a busy peer. The consumer may look at the ring just
// before the producer's last ring writes land and at the spill list just
// after the next value spills; it must still hand the ring values out
// first.
func TestLaneSpillRaceFIFO(t *testing.T) {
	pool := NewNodePool[int]()
	for iter := 0; iter < 100; iter++ {
		lanes := []*Lane[int]{NewLanePooled[int](4, pool), NewLanePooled[int](4, pool)}
		const n = 3000
		go func() {
			for i := 0; i < n; i++ {
				for _, l := range lanes {
					l.Push(i)
				}
				if i%97 == 0 {
					runtime.Gosched()
				}
			}
		}()
		buf := make([]int, 64)
		next := make([]int, len(lanes))
		for next[0] < n || next[1] < n {
			for li, l := range lanes {
				k := l.PopBatch(buf)
				for j := 0; j < k; j++ {
					if buf[j] != next[li] {
						t.Fatalf("iter %d lane %d: popped %d, want %d", iter, li, buf[j], next[li])
					}
					next[li]++
				}
			}
		}
	}
}

// TestLanePushBlocking: the blocking producer variant never spills; the
// consumer's slot frees wake it through the park machinery.
func TestLanePushBlocking(t *testing.T) {
	l := NewLane[int](4)
	const n = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			l.PushBlocking(i)
		}
	}()
	for i := 0; i < n; i++ {
		for {
			v, ok := l.TryPop()
			if !ok {
				time.Sleep(time.Microsecond)
				continue
			}
			if v != i {
				t.Fatalf("pop = %d, want %d", v, i)
			}
			break
		}
	}
	<-done
	if s := l.Spills(); s != 0 {
		t.Fatalf("PushBlocking spilled %d values", s)
	}
}

// TestLaneZeroAllocRing: steady-state in-ring push/pop allocates nothing.
func TestLaneZeroAllocRing(t *testing.T) {
	l := NewLane[int](64)
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			l.Push(i)
		}
		dst := lanePopScratch[:]
		for drained := 0; drained < 32; {
			drained += l.PopBatch(dst)
		}
	}); n != 0 {
		t.Fatalf("ring push/pop: %v allocs/op, want 0", n)
	}
}

// lanePopScratch keeps the drain buffer out of the measured closure.
var lanePopScratch [32]int

func BenchmarkLane(b *testing.B) {
	b.Run("ring-push-pop", func(b *testing.B) {
		l := NewLane[int](256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Push(i)
			l.TryPop()
		}
	})
	b.Run("spill-push-pop", func(b *testing.B) {
		l := NewLane[int](1)
		l.Push(0) // fill the ring so everything below spills
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Push(i)
			l.TryPop()
		}
	})
}
