package spsc

import (
	"runtime"
	"sync"
	"testing"
)

// Batched-drain properties of Lane.PopBatch: dst bounds, interleaving with
// single pops, slot freeing, reference dropping, producer wake-up, a
// concurrent stress, and a fuzzer over the ring and spill boundaries.

func TestPopBatchBasic(t *testing.T) {
	l := NewLane[int](8)
	buf := make([]int, 4)
	if n := l.PopBatch(buf); n != 0 {
		t.Fatalf("PopBatch on empty lane = %d, want 0", n)
	}
	for i := 0; i < 6; i++ {
		l.Push(i)
	}
	if n := l.PopBatch(buf); n != 4 {
		t.Fatalf("PopBatch = %d, want 4 (dst-bounded)", n)
	}
	for i, v := range buf {
		if v != i {
			t.Fatalf("buf[%d] = %d, want %d", i, v, i)
		}
	}
	if n := l.PopBatch(buf); n != 2 || buf[0] != 4 || buf[1] != 5 {
		t.Fatalf("PopBatch tail = %d (%v), want 2 (4 5 _)", n, buf)
	}
	if !l.Empty() {
		t.Fatal("lane should be empty after draining")
	}
	if n := l.PopBatch(nil); n != 0 {
		t.Fatalf("PopBatch(nil) = %d, want 0", n)
	}
}

func TestPopBatchInterleavedWithSinglePops(t *testing.T) {
	// Mixed single/batched pops must preserve FIFO across wraparound and
	// across the ring/spill boundary (pushes outrun pops, so the lane
	// enters and leaves spill mode repeatedly).
	l := NewLane[int](8)
	buf := make([]int, 3)
	next, pushed := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 2+round%4; i++ {
			l.Push(pushed)
			pushed++
		}
		if round%2 == 0 {
			n := l.PopBatch(buf)
			for i := 0; i < n; i++ {
				if buf[i] != next {
					t.Fatalf("round %d: batch pop = %d, want %d", round, buf[i], next)
				}
				next++
			}
		} else if v, ok := l.TryPop(); ok {
			if v != next {
				t.Fatalf("round %d: single pop = %d, want %d", round, v, next)
			}
			next++
		}
	}
	for {
		v, ok := l.TryPop()
		if !ok {
			break
		}
		if v != next {
			t.Fatalf("drain: pop = %d, want %d", v, next)
		}
		next++
	}
	if next != pushed {
		t.Fatalf("popped %d items, pushed %d", next, pushed)
	}
	if l.Spills() == 0 {
		t.Fatal("test never exercised the spill tier")
	}
}

func TestPopBatchFreesSlotsForProducer(t *testing.T) {
	// A full ring drained by PopBatch must become writable again — the batch
	// pop re-stamps every slot free.
	l := NewLane[int](4)
	for i := 0; i < 4; i++ {
		l.Push(i)
	}
	buf := make([]int, 4)
	if n := l.PopBatch(buf); n != 4 {
		t.Fatalf("PopBatch = %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if l.Push(10 + i) {
			t.Fatalf("push %d spilled after the batch drain freed the ring", i)
		}
	}
	if n := l.PopBatch(buf); n != 4 || buf[0] != 10 {
		t.Fatalf("second drain = %d (%v), want 4 starting at 10", n, buf)
	}
}

func TestPopBatchDropsReferences(t *testing.T) {
	// Popped values must not pin payloads: the ring zeroes each slot before
	// freeing it, and a consumed spill node is zeroed before it is recycled.
	l := NewLane[*int](1)
	v, w := new(int), new(int)
	l.Push(v)
	l.Push(w) // spills
	buf := make([]*int, 4)
	if n := l.PopBatch(buf); n != 2 || buf[0] != v || buf[1] != w {
		t.Fatalf("PopBatch = %d, want the two pushed pointers", n)
	}
	for i := range l.slots {
		if l.slots[i].val != nil {
			t.Fatalf("slot %d still holds a reference after PopBatch", i)
		}
	}
	if l.spillHead.val != nil {
		t.Fatal("spill stub still holds a reference after PopBatch")
	}
	for i := range l.free {
		if n := l.free[i].Load(); n != nil && n.val != nil {
			t.Fatalf("recycled spill node %d still holds a reference", i)
		}
	}
}

func TestPopBatchWakesParkedProducer(t *testing.T) {
	// A blocking producer parked on a full ring must be woken by the single
	// end-of-batch producer signal.
	l := NewLane[int](4)
	for i := 0; i < 4; i++ {
		l.PushBlocking(i)
	}
	pushed := make(chan struct{})
	go func() {
		l.PushBlocking(4) // full: spins out and parks
		close(pushed)
	}()
	for l.producerSleep.Load() != sleeping {
		runtime.Gosched()
	}
	buf := make([]int, 4)
	if n := l.PopBatch(buf); n != 4 {
		t.Fatalf("PopBatch = %d, want 4", n)
	}
	<-pushed
	if v, ok := l.TryPop(); !ok || v != 4 {
		t.Fatalf("pop after wake = %v, %v, want 4", v, ok)
	}
}

// TestBatchRaceStress interleaves a blocking producer with a PopBatch
// consumer on a small ring while an observer reads the spill statistic —
// the access pattern of the runtime's program lane: the program context
// pushes with backpressure, the delegate drains in runs. Run under
// `go test -race`.
func TestBatchRaceStress(t *testing.T) {
	const n = 30000
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
			if s := l.Spills(); s != 0 {
				t.Errorf("blocking producer spilled: %d", s)
				return
			}
			runtime.Gosched() // don't starve the transfer on GOMAXPROCS=1
		}
	}()
	go func() {
		for i := 0; i < n; i++ {
			l.PushBlocking(i)
		}
	}()
	buf := make([]int, 5)
	next := 0
	for next < n {
		k := l.PopBatch(buf)
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
}

// FuzzBatchBoundaries fuzzes runs of Push against PopBatch around the
// lane's boundary sizes — empty, single, cap-1, cap, cap+1 — against a
// slice model. Runs longer than the free ring space overflow into the
// spill tier, so the fuzzer crosses the ring/spill boundary in both
// directions. The seed corpus enumerates exactly those run sizes for small
// capacities; the fuzzer then explores arbitrary (capacity, push run, pop
// run, rounds) mixes.
func FuzzBatchBoundaries(f *testing.F) {
	for _, cap := range []uint8{1, 2, 4, 8} {
		for _, batch := range []int{0, 1, int(cap) - 1, int(cap), int(cap) + 1} {
			if batch < 0 {
				continue
			}
			f.Add(cap, uint8(batch), uint8(batch), uint16(5))
		}
	}
	f.Fuzz(func(t *testing.T, capRaw, pushRaw, popRaw uint8, rounds uint16) {
		capacity := int(capRaw%16) + 1
		pushN := int(pushRaw % 33)
		popN := int(popRaw % 33)
		l := NewLane[uint16](capacity)
		var model []uint16
		spilled := 0 // values the model says went to the spill tier
		next := uint16(0)
		popBuf := make([]uint16, popN)
		for r := 0; r < int(rounds%64); r++ {
			for j := 0; j < pushN; j++ {
				if l.Push(next) {
					spilled++
				}
				model = append(model, next)
				next++
			}
			if got := l.Spills(); got != uint64(spilled) {
				t.Fatalf("round %d: Spills = %d, model %d", r, got, spilled)
			}
			n := l.PopBatch(popBuf)
			want := popN
			if len(model) < want {
				want = len(model)
			}
			if n != want {
				t.Fatalf("round %d: PopBatch = %d, want %d", r, n, want)
			}
			for i := 0; i < n; i++ {
				if popBuf[i] != model[i] {
					t.Fatalf("round %d: popped %d, want %d", r, popBuf[i], model[i])
				}
			}
			model = model[n:]
		}
		// Drain and verify the tail.
		for len(model) > 0 {
			v, ok := l.TryPop()
			if !ok || v != model[0] {
				t.Fatalf("drain: pop = %v, %v, want %d", v, ok, model[0])
			}
			model = model[1:]
		}
		if !l.Empty() {
			t.Fatal("lane not empty after drain")
		}
	})
}
