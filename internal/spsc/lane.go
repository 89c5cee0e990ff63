package spsc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Lane is the runtime's SPSC queue: a bounded lap-stamped value ring
// backed by an unbounded linked-list spill that absorbs overflow, so the
// producer-side Push NEVER blocks. Recursive delegation needs that property
// for deadlock freedom: a delegate may delegate to a set it itself owns — or to a peer
// that is simultaneously delegating back — and a bounded queue's blocking
// push could then wait on a lane only the blocked context (or a blocked
// cycle of contexts) could drain. In steady state the ring absorbs all
// traffic and a push writes the invocation record by value with zero heap
// allocations; overflow pays a node allocation only until the spill-node
// freelist warms up (see the recycling note below).
//
// FIFO across the two tiers is preserved by a sticky spill mode: once a
// value spills, every later push spills too, until the producer observes
// (via the published spillPopped counter) that the consumer has drained
// the entire spill list — only then may the ring be used again. The
// consumer always drains ring before spill, which is correct because the
// resume rule makes "ring values present are older than spill values
// present" an invariant — provided the consumer looks at the ring again
// after it sees a spill node (see PopBatch).
//
// PushBlocking is the complementary producer call for contexts that are
// never part of a delegation cycle (the program context, which no delegate
// can block on): it parks on ring-full instead of spilling, giving the
// natural backpressure a bounded queue provides. A lane whose producer
// only calls PushBlocking never allocates after construction. The two push
// styles may not be interleaved while a spill is outstanding; the runtime
// uses exactly one style per lane (program lanes block, delegate lanes
// spill), so the case never arises.
//
// A Lane publishes no pushed/popped counters and performs no consumer-side
// wake signaling: readiness tracking and consumer parking belong to the
// delegate's pending-lane bitmask (one word for all lanes, maintained by
// the runtime), which replaces per-lane O(lanes) polling with an O(1)
// check, and backlogs come from the runtime's lane ledger. The lane only
// keeps the producer-side park machinery that PushBlocking needs.
//
// Spill nodes are recycled: the consumer hands each consumed node back
// through a small per-lane SPSC freelist ring (nil/non-nil pointer slots
// are the stamps), overflowing into an optional NodePool shared across
// lanes, so a workload that spills in steady state — delegation cycles,
// sustained self-delegation — stops paying one heap allocation per spilled
// value once the first burst has primed the freelist.
type Lane[T any] struct {
	slots []slot[T]
	mask  uint64
	shift uint // log2(capacity), for lap computation

	// free is the spill-node freelist ring: consumed spill nodes travel
	// back to the producer through it (consumer stores, producer swaps out;
	// a nil slot is "empty", non-nil "full", so no separate stamps). Shared
	// by both sides but each side only touches its own cursor.
	free []atomic.Pointer[unode[T]]
	// pool, when non-nil, absorbs freelist overflow and feeds freelist
	// misses; shared across the lanes of one runtime.
	pool *NodePool[T]

	_    pad
	head uint64 // consumer cursor: next ring slot to read (consumer-private)
	// spillHead is the consumer's end of the spill list (stub-node form).
	spillHead *unode[T]
	// freePut is the consumer's cursor into free (next slot to recycle into).
	freePut uint64

	_    pad
	tail uint64 // producer cursor: next ring slot to write (producer-private)
	// spillTail is the producer's end of the spill list.
	spillTail *unode[T]
	// freeGet is the producer's cursor into free (next slot to reuse from).
	freeGet uint64
	// spilling records sticky spill mode (producer-private): set when a
	// push overflows the ring, cleared when the producer observes the
	// consumer has drained the whole spill list.
	spilling bool

	_ pad
	// spillPushed counts values ever spilled (producer publishes; doubles
	// as the runtime's spill statistic).
	spillPushed atomic.Uint64
	// spillPopped counts spilled values consumed (consumer publishes); the
	// producer compares it against spillPushed to leave spill mode.
	spillPopped atomic.Uint64
	// producerSleep/wakeProducer park a PushBlocking caller on ring-full.
	producerSleep atomic.Int32
	wakeProducer  chan struct{}
}

// freelistSize is the per-lane spill-node freelist capacity. 64 node
// pointers (512B) covers the spill bursts recursive delegation produces in
// practice — a burst deeper than the freelist falls back to the shared
// NodePool, and only with no pool attached does it reach the allocator.
const freelistSize = 64

// NodePool is a spill-node reservoir shared across lanes (a typed
// sync.Pool): when one lane's freelist overflows the nodes become available
// to every other lane of the same runtime, so a workload whose spill
// pressure moves between lanes still recycles instead of allocating.
type NodePool[T any] struct{ p sync.Pool }

// NewNodePool returns an empty shared spill-node pool.
func NewNodePool[T any]() *NodePool[T] { return &NodePool[T]{} }

func (np *NodePool[T]) get() *unode[T] {
	if np == nil {
		return &unode[T]{}
	}
	if n, _ := np.p.Get().(*unode[T]); n != nil {
		return n
	}
	return &unode[T]{}
}

func (np *NodePool[T]) put(n *unode[T]) {
	if np != nil {
		np.p.Put(n)
	}
}

// NewLane returns a lane with ring capacity rounded up to a power of two
// (DefaultCapacity when non-positive). Construction is O(1) in touched
// memory: the zero-valued slots mean "free for lap 0".
func NewLane[T any](capacity int) *Lane[T] {
	return NewLanePooled[T](capacity, nil)
}

// NewLanePooled is NewLane with a shared spill-node pool attached: freelist
// overflow and misses go through pool instead of the allocator. A nil pool
// is allowed (per-lane freelist recycling only).
func NewLanePooled[T any](capacity int, pool *NodePool[T]) *Lane[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := 1
	shift := uint(0)
	for c < capacity {
		c <<= 1
		shift++
	}
	stub := &unode[T]{}
	return &Lane[T]{
		slots:        make([]slot[T], c),
		mask:         uint64(c - 1),
		shift:        shift,
		free:         make([]atomic.Pointer[unode[T]], freelistSize),
		pool:         pool,
		spillHead:    stub,
		spillTail:    stub,
		wakeProducer: make(chan struct{}, 1),
	}
}

func (l *Lane[T]) freeStamp(p uint64) uint64 { return (p >> l.shift) << 1 }
func (l *Lane[T]) fullStamp(p uint64) uint64 { return (p>>l.shift)<<1 | 1 }

// Cap returns the ring capacity (the spill tier is unbounded).
func (l *Lane[T]) Cap() int { return len(l.slots) }

// Spills returns how many values have overflowed to the spill list since
// construction. Safe from any goroutine.
func (l *Lane[T]) Spills() uint64 { return l.spillPushed.Load() }

// getNode produces a spill node: recycled from the freelist ring when one
// is waiting, else from the shared pool, else freshly allocated. Producer
// method. Recycled nodes arrive with val zeroed (cleared when popped) and
// next cleared (cleared when recycled).
func (l *Lane[T]) getNode() *unode[T] {
	s := &l.free[l.freeGet&uint64(freelistSize-1)]
	if n := s.Load(); n != nil {
		s.Store(nil)
		l.freeGet++
		return n
	}
	return l.pool.get()
}

// putNode recycles a consumed spill node into the freelist ring, spilling
// it to the shared pool when the ring is full. Consumer method. The node's
// next pointer is severed first — it still points into the live list — so
// a reused node can be linked directly.
func (l *Lane[T]) putNode(n *unode[T]) {
	n.next.Store(nil)
	s := &l.free[l.freePut&uint64(freelistSize-1)]
	if s.Load() == nil {
		s.Store(n)
		l.freePut++
		return
	}
	l.pool.put(n)
}

// pushSpill appends v to the spill list and publishes the spill count. The
// node is linked before the count is published, so a producer that later
// observes spillPopped == spillPushed knows the consumer has consumed
// every node it linked.
func (l *Lane[T]) pushSpill(v T) {
	n := l.getNode()
	n.val = v
	l.spillTail.next.Store(n)
	l.spillTail = n
	l.spillPushed.Store(l.spillPushed.Load() + 1) // single writer
}

// tryRing writes v into the ring if spill mode is off and a slot is free.
func (l *Lane[T]) tryRing(v T) bool {
	s := &l.slots[l.tail&l.mask]
	if s.seq.Load() != l.freeStamp(l.tail) {
		return false // ring full: consumer has not freed this slot yet
	}
	s.val = v
	s.seq.Store(l.fullStamp(l.tail))
	l.tail++
	return true
}

// Push inserts v without ever blocking, spilling to the unbounded list on
// ring overflow. It reports whether the value spilled. Producer method.
func (l *Lane[T]) Push(v T) (spilled bool) {
	if l.spilling {
		if l.spillPopped.Load() != l.spillPushed.Load() {
			l.pushSpill(v)
			return true
		}
		// The consumer has drained the whole spill list; anything it pops
		// from the ring from here on was pushed after every spilled value
		// was consumed, so ring-first drain order stays FIFO.
		l.spilling = false
	}
	if l.tryRing(v) {
		return false
	}
	l.spilling = true
	l.pushSpill(v)
	return true
}

// PushBlocking inserts v, parking while the ring is full, and never
// spills (unless a spill from a prior Push is still outstanding, in which
// case FIFO requires joining it). For producers that nothing in the
// consumer's progress can depend on — the runtime's program context.
// Producer method.
func (l *Lane[T]) PushBlocking(v T) {
	if l.spilling {
		if l.spillPopped.Load() != l.spillPushed.Load() {
			l.pushSpill(v)
			return
		}
		l.spilling = false
	}
	for spin := 0; ; {
		if l.tryRing(v) {
			return
		}
		spin++
		if spin < spinBeforePark {
			if spin%16 == 0 {
				runtime.Gosched()
			}
			continue
		}
		// Park until the consumer frees a slot. Re-check after arming the
		// sleep flag to avoid a lost wakeup.
		l.producerSleep.Store(sleeping)
		if l.slots[l.tail&l.mask].seq.Load() == l.freeStamp(l.tail) {
			l.producerSleep.Store(awake)
			continue
		}
		<-l.wakeProducer
		l.producerSleep.Store(awake)
		spin = 0
	}
}

// TryPop removes and returns the oldest value without blocking; ok is
// false when the lane is empty. Ring before spill — see the type comment
// for why that order is FIFO. Consumer method.
func (l *Lane[T]) TryPop() (T, bool) {
	var v [1]T
	if l.PopBatch(v[:]) == 0 {
		return v[0], false
	}
	return v[0], true
}

// PopBatch removes up to len(dst) values into dst without blocking and
// returns how many were transferred. Ring slots are re-stamped free as
// they are read (there is no external Len reader to keep consistent, and a
// parked PushBlocking producer should resume as soon as possible); the
// spill-popped counter is published once per run. Consumer method.
//
// A spilled value is taken only after the ring is seen empty AGAIN, once
// the spill node is visible: the producer writes every ring value older
// than a spilled one before it links that spill node, so a ring slot
// still empty after the node's load proves the ring holds nothing older,
// while a ring check made only before that load can race those writes
// and hand the spilled value out first.
func (l *Lane[T]) PopBatch(dst []T) int {
	var zero T
	n, m := 0, 0
	for n < len(dst) {
		s := &l.slots[l.head&l.mask]
		if s.seq.Load() == l.fullStamp(l.head) {
			dst[n] = s.val
			s.val = zero // drop references for GC before the slot is freed
			s.seq.Store(l.freeStamp(l.head + uint64(len(l.slots))))
			l.head++
			n++
			continue
		}
		next := l.spillHead.next.Load()
		if next == nil {
			break
		}
		if s.seq.Load() == l.fullStamp(l.head) {
			continue // an older ring value landed after the first check
		}
		dst[n] = next.val
		next.val = zero
		old := l.spillHead
		l.spillHead = next
		// The old stub is unreachable now (the producer's tail is at or
		// past next): recycle it for a future spill.
		l.putNode(old)
		n++
		m++
	}
	if m > 0 {
		l.spillPopped.Store(l.spillPopped.Load() + uint64(m))
	}
	if n > 0 {
		l.signalProducer()
	}
	return n
}

// Empty reports whether the lane holds no values. Consumer method (it
// reads the consumer cursor) — a test/diagnostic helper: the runtime's
// delegate loop never polls lanes for emptiness, it tracks readiness
// through its pending-lane bitmask and re-checks that (not this) before
// parking.
func (l *Lane[T]) Empty() bool {
	return l.slots[l.head&l.mask].seq.Load() != l.fullStamp(l.head) &&
		l.spillHead.next.Load() == nil
}

func (l *Lane[T]) signalProducer() {
	if l.producerSleep.Load() == sleeping {
		select {
		case l.wakeProducer <- struct{}{}:
		default:
		}
	}
}
