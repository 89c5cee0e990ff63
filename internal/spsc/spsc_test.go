package spsc

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// Ring-level properties of the lane's slot machinery: single values,
// capacity rounding, the full-ring boundary, capacity 1, zero values,
// wraparound, and concurrent FIFO.

func TestPushPopSingle(t *testing.T) {
	l := NewLane[int](4)
	if spilled := l.Push(42); spilled {
		t.Fatal("Push spilled on an empty lane")
	}
	got, ok := l.TryPop()
	if !ok || got != 42 {
		t.Fatalf("TryPop = %v, %v, want 42", got, ok)
	}
	if _, ok := l.TryPop(); ok {
		t.Fatal("TryPop on an empty lane should report !ok")
	}
}

func TestCapacityRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultCapacity}, {-1, DefaultCapacity}, {1, 1}, {3, 4}, {4, 4}, {1000, 1024},
	} {
		if got := NewLane[int](tc.in).Cap(); got != tc.want {
			t.Errorf("NewLane(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestFullQueueRejectsTryPush: a full ring takes no further ring writes —
// the next Push spills — and once the consumer has drained the spill the
// producer is back on the ring.
func TestFullQueueRejectsTryPush(t *testing.T) {
	l := NewLane[int](2)
	if l.Push(1) || l.Push(2) {
		t.Fatal("lane of capacity 2 should take 2 values in the ring")
	}
	if !l.Push(3) {
		t.Fatal("full ring took a third value without spilling")
	}
	for want := 1; want <= 3; want++ {
		if got, ok := l.TryPop(); !ok || got != want {
			t.Fatalf("FIFO violated: got %v, %v, want %d", got, ok, want)
		}
	}
	if l.Push(4) {
		t.Fatal("lane should return to the ring once the spill is drained")
	}
}

func TestCapacityOne(t *testing.T) {
	// The odd/even lap-stamp encoding keeps capacity 1 unambiguous: a
	// written slot (odd stamp) can never look free (even stamp).
	l := NewLane[int](1)
	for lap := 0; lap < 10; lap++ {
		if l.Push(lap) {
			t.Fatalf("lap %d: push spilled on an empty cap-1 lane", lap)
		}
		if !l.Push(99) {
			t.Fatalf("lap %d: full cap-1 ring took a second value", lap)
		}
		if got, ok := l.TryPop(); !ok || got != lap {
			t.Fatalf("lap %d: pop = %v, %v", lap, got, ok)
		}
		if got, ok := l.TryPop(); !ok || got != 99 {
			t.Fatalf("lap %d: spilled pop = %v, %v", lap, got, ok)
		}
	}
	// The blocking producer never spills: lap after lap through one slot.
	for lap := 0; lap < 10; lap++ {
		l.PushBlocking(lap)
		if got, ok := l.TryPop(); !ok || got != lap {
			t.Fatalf("blocking lap %d: pop = %v, %v", lap, got, ok)
		}
	}
}

func TestZeroValuesAreLegal(t *testing.T) {
	// The value ring has no nil-as-empty restriction: zero values (and nil
	// pointers) are ordinary payloads, in the ring and in the spill tier.
	l := NewLane[*int](1)
	l.Push(nil)
	l.Push(nil) // spills
	for i := 0; i < 2; i++ {
		if got, ok := l.TryPop(); !ok || got != nil {
			t.Fatalf("pop %d = %v, %v, want nil, true", i, got, ok)
		}
	}
	li := NewLane[int](2)
	li.PushBlocking(0)
	if v, ok := li.TryPop(); !ok || v != 0 {
		t.Fatalf("zero int round-trip = %v, %v", v, ok)
	}
}

func TestWraparound(t *testing.T) {
	// Partial fills walk the cursors around the ring at every offset.
	l := NewLane[int](4)
	for round := 0; round < 100; round++ {
		vals := []int{round * 3, round*3 + 1, round*3 + 2}
		for i := range vals {
			if l.Push(vals[i]) {
				t.Fatalf("round %d: push %d spilled with free slots", round, i)
			}
		}
		for i := range vals {
			got, ok := l.TryPop()
			if !ok || got != vals[i] {
				t.Fatalf("round %d: pop %d = %v, want %d", round, i, got, vals[i])
			}
		}
	}
}

// TestFIFOOrderConcurrent is the core correctness property: with one
// blocking producer and one consumer running concurrently, every item
// arrives exactly once and in order.
func TestFIFOOrderConcurrent(t *testing.T) {
	const n = 200000
	l := NewLane[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			l.PushBlocking(i)
		}
	}()
	next := 0
	for next < n {
		v, ok := l.TryPop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != next {
			t.Fatalf("out of order: got %d, want %d", v, next)
		}
		next++
	}
	wg.Wait()
	if l.Spills() != 0 {
		t.Fatalf("blocking producer spilled %d values", l.Spills())
	}
}

// TestRaceStress drives a nonblocking producer (ring and spill tier) against
// a mixed TryPop/PopBatch consumer while a third goroutine reads the spill
// statistic, so the race detector can check every shared access pattern
// the runtime uses (`go test -race`).
func TestRaceStress(t *testing.T) {
	const n = 20000
	l := NewLane[int](16)
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := l.Spills(); s > n {
				t.Errorf("Spills out of range: %d", s)
				return
			}
			runtime.Gosched() // don't starve the transfer on GOMAXPROCS=1
		}
	}()
	go func() {
		for i := 0; i < n; i++ {
			l.Push(i)
			if i%64 == 0 {
				runtime.Gosched() // let the consumer catch up and the ring resume
			}
		}
	}()
	buf := make([]int, 5)
	next := 0
	for next < n {
		k := 0
		if next%2 == 0 {
			k = l.PopBatch(buf)
		} else if v, ok := l.TryPop(); ok {
			buf[0], k = v, 1
		}
		if k == 0 {
			runtime.Gosched()
			continue
		}
		for i := 0; i < k; i++ {
			if buf[i] != next {
				t.Fatalf("out of order: got %d, want %d", buf[i], next)
			}
			next++
		}
	}
	close(stop)
	obs.Wait()
	if !l.Empty() {
		t.Fatal("lane not empty after consuming every value")
	}
}

// TestQuickSequences drives random push/pop interleavings (single-threaded)
// against a slice model: every push is accepted, a push spills exactly when
// the ring is full or an earlier spill is still undrained, and pops return
// the model's head.
func TestQuickSequences(t *testing.T) {
	f := func(ops []bool, vals []int16) bool {
		l := NewLane[int16](8)
		var model []int16
		spillsLeft := 0 // spilled values still in the lane (they are the model's tail)
		vi := 0
		for _, isPush := range ops {
			if isPush && vi < len(vals) {
				v := vals[vi]
				vi++
				wantSpill := spillsLeft > 0 || len(model) == l.Cap()
				if l.Push(v) != wantSpill {
					return false
				}
				if wantSpill {
					spillsLeft++
				}
				model = append(model, v)
			} else {
				got, ok := l.TryPop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || got != model[0] {
					return false
				}
				model = model[1:]
				if spillsLeft > len(model) {
					spillsLeft = len(model)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
