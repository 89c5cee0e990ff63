// Package spsc implements the lock-free single-producer single-consumer
// lanes the Prometheus runtime uses between each producer context and each
// delegate context, in the spirit of FastForward (Giacomoni et al., PPoPP
// 2008): the producer→delegate handoff should cost no more than the cache
// transfers of the data itself.
//
// A Lane is a bounded ring of sequence-stamped value slots (a Vyukov-style
// ring specialized to one producer and one consumer) backed by an
// unbounded spill list for overflow. Each slot carries a lap stamp next to
// the value, where lap(p) = p/capacity:
//
//   - a slot is free for position p when seq == 2*lap(p) (even stamps mean
//     free — and the zero value is "free for lap 0", so a new ring needs no
//     initialization pass and its pages fault in on first use, keeping
//     runtime construction O(1) in touched memory);
//   - writing stamps it seq = 2*lap(p)+1 (odd: readable);
//   - popping re-stamps it seq = 2*(lap(p)+1), freeing it for the next lap.
//
// As in FastForward, the producer and consumer never read each other's
// cursor on the hot path — full/empty detection comes from the slot stamps,
// which travel on the same cache line as the value, so steady-state
// communication is one cache-line transfer per operation. Carrying values
// (rather than pointers) means the runtime's invocation records are written
// directly into the ring: no per-operation heap allocation, no GC pressure,
// and no nil-as-empty restriction.
//
// PopBatch removes a run of readable values with a single producer wake at
// the end, so a delegate draining a backlog pays its shared-line stores
// once per run rather than once per operation.
//
// A producer blocked on a full ring spins for a bounded number of
// iterations (the analogue of the paper's PAUSE-instruction spin loop) and
// then parks on a channel; consumer-side readiness and parking belong to
// the runtime's per-delegate pending-lane bitmask.
package spsc

import "sync/atomic"

// cacheLineSize is the assumed size of a CPU cache line, used to pad the
// producer- and consumer-owned fields apart so they never share a line.
const cacheLineSize = 64

// DefaultCapacity is the ring capacity used when a lane is built with a
// non-positive capacity. Lanes want enough buffering to absorb bursts of
// operations mapped to the same serialization set (paper §4); 256
// invocation-sized slots (16KB per lane) absorbs deep bursts while keeping
// runtime construction cheap — a saturated blocking producer is throttled
// by the consumer's drain rate, not by extra ring depth.
const DefaultCapacity = 256

// spinBeforePark bounds the busy-wait loop before a blocked producer parks
// on a channel. The value trades latency (higher = faster handoff under
// load) against wasted CPU when the consumer is slow.
const spinBeforePark = 256

type pad [cacheLineSize]byte

// sleepState values for the producer parking protocol.
const (
	awake    int32 = iota // producer is running (or about to re-check)
	sleeping              // producer is parked on its wake channel
)

// slot pairs a value with its sequence stamp. The stamp shares the value's
// cache line, so the consumer's readability check rides the same transfer
// that delivers the data.
type slot[T any] struct {
	seq atomic.Uint64
	val T
}
