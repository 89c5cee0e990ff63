package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/spsc"
)

// The lane engine. The paper's runtime (§4) feeds each delegate through
// one SPSC queue written by the program context. This engine generalizes
// that queue to a row of lanes so the extension the paper names as future
// work — recursive delegation ("we plan to extend the runtime to support
// recursive delegation to improve programmability", §4) — runs on the same
// machinery as plain delegation: lane 0 of every delegate is the paper's
// program-context queue, and with Config.Recursive enabled, delegated
// operations may themselves delegate further operations through the lanes
// of their own execution context. Every delegation costs zero heap
// allocations and O(1) work in steady state.
//
// Plumbing. SPSC queues admit a single producer, so each delegate owns one
// inbound lane per producer context (the program context and every
// delegate). Lanes are bounded lap-stamped value rings (spsc.Lane) backed
// by an unbounded spill list that engages only on overflow: a purely
// bounded lane would self-deadlock when a delegate delegates to a set it
// itself owns (or around a delegation cycle), because only blocked
// contexts could drain it. Delegate producers therefore never block — they
// spill — while the program context, which no delegate's progress can
// depend on, uses the blocking push and gets bounded-queue backpressure.
// In steady state every delegation writes its invocation record by value
// into ring memory: no allocation, no node chasing. Program lanes are built
// with the pool; a delegate-producer lane is built on its producer's first
// push, so a runtime that never delegates recursively pays for one ring
// per delegate, not O(MaxDelegates²).
//
// Consumption. Each delegate keeps a pending-lane bitmask (bit p set =
// lane p may hold work). A producer publishes work with one conditional
// atomic OR plus a wake check; the delegate claims pending lanes with a
// single Swap and drains each claimed lane in batched runs, publishing its
// per-lane executed counter once per run instead of once per operation.
// An idle delegate checks O(1) words instead of polling all Delegates+1
// lanes round-robin.
//
// Ordering. Per-set program order is preserved per producer: operations a
// producer sends to one set stay in order (one lane, FIFO across ring and
// spill). For the execution to stay deterministic, a serialization set
// must receive delegations from only one producer context per isolation
// epoch — the natural structure of divide-and-conquer programs, enforced
// in checked recursive mode by a sharded producer table. Without
// Config.Recursive the program context is the only producer, and every
// set trivially has one.
//
// Quiescence. The lane ledger is two single-writer counters per lane: the
// producer counts the messages it pushed (laneSent, padded so producers
// never share a line) and the delegate counts the messages it finished
// (laneExec, published at drain-run boundaries). A delegate's backlog, a
// set's handoff safety (recsteal.go) and the barrier all read it; the
// delegation hot path never touches shared state. Barriers repeat sync
// rounds until the ledger balances across a full quiet round — executing
// an operation may enqueue more work, so draining every lane once is not
// enough.

// Wake-state values for the delegate parking protocol (the lane-engine
// analogue of spsc's sleepState).
const (
	recAwake    int32 = iota // delegate is running (or about to re-check)
	recSleeping              // delegate is parked on its wake channel
)

// recDelegate is a delegate context.
type recDelegate struct {
	id int
	// lanes[p] is the inbound lane of producer context p. Lane 0 (the
	// program context's) is built with the pool; lane p >= 1 is built and
	// published by producer p on its first push — the producer is its only
	// writer, stores the pointer before raising pending bit p, and never
	// replaces it, so a consumer that claimed the bit always loads it.
	lanes []atomic.Pointer[spsc.Lane[Invocation]]

	// pending is the lane-readiness bitmask, one bit per producer lane
	// (64 lanes per word). Bit p is set by producer p after a push and
	// cleared wholesale by the delegate when it claims a word's lanes for
	// draining; because the delegate drains a claimed lane until empty and
	// every push is followed by the OR, no work is ever stranded behind a
	// cleared bit.
	pending []atomic.Uint64
	// sleep/wake park the delegate when every pending word is zero.
	sleep atomic.Int32
	wake  chan struct{}

	// The fields above are read by producers on every push; the fields
	// below are written by this delegate at every drain run (or
	// operation). The pad keeps those stores from invalidating the
	// producers' line.
	_ [cacheLine]byte

	// laneExec[p] publishes how many of lane p's messages (methods, syncs,
	// terminates alike — everything producers count in laneSent) this
	// delegate has finished executing, stored once per drain run (the
	// delegate is its only writer). Lanes are FIFO, so laneExec[p] >=
	// position proves every message at or before that lane position has
	// run: the executed half of the ledger behind backlogs, barriers, and
	// the whole-set handoff protocol (recsteal.go).
	laneExec []atomic.Uint64

	// drainBatches/drainedOps count the batched lane drains; aggregated
	// into Stats by the program context.
	drainBatches atomic.Uint64
	drainedOps   atomic.Uint64

	// Coverage-waiter list (stealing only): producers parked in
	// waitRecOutboundCoverage until THIS delegate's laneExec counters
	// advance. covWaiters counts parked producers — the drain loop checks
	// it with one atomic load per drain run and broadcasts only when it is
	// nonzero, so the waiter-free hot path pays nothing else. covCh is the
	// broadcast: closed-and-replaced under covMu at each signalled publish,
	// the classic close-to-wake-all channel rotation (a waiter that
	// subscribed to an already-rotated channel finds it closed and simply
	// re-checks).
	covWaiters atomic.Int32
	covMu      sync.Mutex
	covCh      chan struct{}

	// Outbound-attribution state for the per-set handoff ledger
	// (recsteal.go), maintained only under stealing and touched only by
	// this delegate's goroutine — plain fields, no atomics. prodSet is the
	// serialization set of the method invocation currently executing
	// (noSetID for pool tasks): any nested delegation the invocation issues
	// is that set's own outbound traffic, recorded against its entry by
	// noteOutbound.
	// prodCachedSet/prodEntry/prodTable are the one-slot entry cache keyed
	// on (owner table, set) so runs of one set's operations resolve the
	// entry once, and an epoch's table swap invalidates it by pointer.
	prodSet       uint64
	prodCachedSet uint64
	prodEntry     *recSetEntry
	prodTable     *recOwnerTable

	_ [cacheLine]byte // keeps the next heap object off the last line written here
}

// cacheLine is the assumed CPU cache-line size for padding.
const cacheLine = 64

// lineArray allocates an n-element array of 8-byte words rounded up to
// whole cache lines — an allocation size class that is line-aligned — so
// small per-delegate arrays written by different goroutines (a producer's
// lane pointers, a delegate's executed counters) never share a line.
func lineArray[T any](n int) []T {
	const perLine = cacheLine / 8
	return make([]T, (n+perLine-1)/perLine*perLine)[:n]
}

// recCounter is a cache-line-padded single-writer counter, so concurrent
// producers never contend on a shared counter line.
type recCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// add bumps the counter without an RMW: the owner is the only writer.
func (c *recCounter) add(delta uint64) { c.n.Store(c.n.Load() + delta) }

// recState is the lane engine behind a Runtime.
type recState struct {
	delegates []*recDelegate
	// laneSent[d][p] counts every message (method, sync, terminate)
	// producer p has pushed into delegate d+1's lane p. Single writer
	// (producer p), padded so concurrent producers never share a line.
	laneSent [][]recCounter
	// pool is the spill-node pool shared by every lane of this runtime, so
	// spill pressure that moves between lanes keeps recycling nodes.
	pool *spsc.NodePool[Invocation]
	// producers enforces the one-producer-per-set discipline (checked
	// recursive mode without stealing only; nil otherwise).
	producers *producerTable
	// steal holds the owner-table placement state (owner table, migration
	// counters); nil unless Policy is LeastLoaded. Sets migrate between
	// owners only under Config.Stealing.
	steal *recStealState
}

// sentSum is the pushed side of the ledger, summed over every lane.
func (rec *recState) sentSum() uint64 {
	var sum uint64
	for _, row := range rec.laneSent {
		for p := range row {
			sum += row[p].n.Load()
		}
	}
	return sum
}

// execSum is the executed side of the ledger, summed over every lane.
func (rec *recState) execSum() uint64 {
	var sum uint64
	for _, d := range rec.delegates {
		for p := range d.laneExec {
			sum += d.laneExec[p].Load()
		}
	}
	return sum
}

// producerShards is the stripe count of the checked-mode producer table;
// a power of two so shard selection is a mask.
const producerShards = 64

// producerTable is the sharded set→producer registry behind checked
// recursive mode. Delegations race in from every context, so the check
// must not funnel them through one mutex: the set id is scrambled and
// striped over producerShards independently-locked maps, keeping
// checked-mode overhead O(1) and all-but-uncontended.
type producerTable struct {
	shards [producerShards]producerShard
}

type producerShard struct {
	mu sync.Mutex
	m  map[uint64]int
	// Pad to a full cache line (8B mutex + 8B map header + 48B) so
	// adjacent shards' locks never share one.
	_ [48]byte
}

func newProducerTable() *producerTable {
	t := &producerTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]int)
	}
	return t
}

// check enforces the recursive-mode determinism discipline: one producer
// context per serialization set per isolation epoch.
func (t *producerTable) check(set uint64, producer int) {
	// Fibonacci-style scramble spreads consecutive set ids over shards.
	sh := &t.shards[(set*0x9e3779b97f4a7c15)>>(64-6)&(producerShards-1)]
	sh.mu.Lock()
	prev, ok := sh.m[set]
	if !ok {
		sh.m[set] = producer
	}
	sh.mu.Unlock()
	if ok && prev != producer {
		panic(fmt.Sprintf(
			"prometheus: serializer violation: set %d delegated from context %d after context %d in one epoch (recursive mode requires one producer per set)",
			set, producer, prev))
	}
}

// reset clears the registry at an epoch boundary.
func (t *producerTable) reset() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if len(sh.m) > 0 {
			sh.m = make(map[uint64]int)
		}
		sh.mu.Unlock()
	}
}

// initLanes builds the delegate pool and its lane matrix and starts the
// drain loops.
func (rt *Runtime) initLanes() {
	cfg := rt.cfg
	// The lane matrix, ledgers, and producer-indexed arrays are all sized
	// to POOL CAPACITY, not the initial active count: a later Resize must
	// not reallocate any structure a running drain loop or producer indexes
	// into. Only the drain goroutines themselves scale.
	nProducers := cfg.MaxDelegates + 1
	rec := &recState{
		laneSent: make([][]recCounter, cfg.MaxDelegates),
		pool:     spsc.NewNodePool[Invocation](),
	}
	if cfg.Checked && cfg.Recursive && !cfg.Stealing {
		// The static-placement discipline: one producer context per set per
		// epoch, enforced by the sharded registry. Under stealing the
		// owner-table entries enforce the generalized rule instead (producer
		// handover allowed at quiescent points — recRoute), because
		// engine-driven migrations legitimately move the producer role.
		rec.producers = newProducerTable()
	}
	if cfg.Policy == LeastLoaded {
		rec.steal = newRecStealState(nProducers)
	}
	words := (nProducers + 63) / 64
	for i := 0; i < cfg.MaxDelegates; i++ {
		d := &recDelegate{
			id:       i + 1,
			lanes:    lineArray[atomic.Pointer[spsc.Lane[Invocation]]](nProducers),
			pending:  lineArray[atomic.Uint64](words),
			wake:     make(chan struct{}, 1),
			laneExec: lineArray[atomic.Uint64](nProducers),
			covCh:    make(chan struct{}),
			prodSet:  noSetID, // nothing executing yet: attribute to no set
		}
		d.lanes[ProgramContext].Store(spsc.NewLanePooled[Invocation](cfg.QueueCapacity, rec.pool))
		rec.laneSent[i] = make([]recCounter, nProducers)
		rec.delegates = append(rec.delegates, d)
	}
	// Publish the engine state BEFORE spawning any drain loop: an idle
	// delegate reaches its first imbalance-sample tick without ever
	// synchronizing with this goroutine, so everything it may read —
	// rt.rec, the full delegates slice, the ledgers — must be complete when
	// the goroutine starts (the go statement is the happens-before edge).
	rt.rec = rec
	for _, d := range rec.delegates[:cfg.Delegates] {
		rt.wg.Add(1)
		go rt.recLoop(d)
	}
}

// notify publishes lane `producer` as pending and wakes the delegate if it
// is parked. The OR is skipped when the bit is already set (the common
// case on a busy lane — one shared load instead of an RMW): bit p has a
// single setter, so observing it set means the delegate has not claimed
// the word since, and its claim-then-drain-to-empty discipline will find
// the value just pushed. The wake check must still run — a parked
// delegate and a set bit can coexist only in the instant between a push
// and this call, and the sleep-flag handshake (seq-cst store/load on both
// sides, as in spsc) closes it.
func (d *recDelegate) notify(producer int) {
	w := &d.pending[producer>>6]
	bit := uint64(1) << (producer & 63)
	if w.Load()&bit == 0 {
		w.Or(bit)
	}
	if d.sleep.Load() == recSleeping {
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
}

// covSubscribe registers the calling producer as a coverage waiter and
// returns the broadcast channel to park on. The order is load-bearing for
// the lost-wakeup proof: the waiter count is raised BEFORE the caller
// re-checks coverage, so a drain loop whose laneExec publish the re-check
// missed is guaranteed to observe the waiter and rotate the channel
// (sequentially-consistent atomics on both sides).
func (d *recDelegate) covSubscribe() chan struct{} {
	d.covWaiters.Add(1)
	d.covMu.Lock()
	ch := d.covCh
	d.covMu.Unlock()
	return ch
}

// covUnsubscribe deregisters a coverage waiter.
func (d *recDelegate) covUnsubscribe() { d.covWaiters.Add(-1) }

// covSignal wakes every parked coverage waiter by rotating the broadcast
// channel. Called from this delegate's drain loop after a laneExec
// publish, only when covWaiters is nonzero.
func (d *recDelegate) covSignal() {
	d.covMu.Lock()
	close(d.covCh)
	d.covCh = make(chan struct{})
	d.covMu.Unlock()
}

// anyPending reports whether any lane bit is raised (the delegate's
// pre-park re-check).
func (d *recDelegate) anyPending() bool {
	for i := range d.pending {
		if d.pending[i].Load() != 0 {
			return true
		}
	}
	return false
}

// recEnqueue routes one invocation from any producer context to the owner
// of its set. The steady-state cost is one padded-counter bump, one ring
// write, one pending-bit load (or OR), and one sleep-flag load — no
// allocation, no contended atomics. Under LeastLoaded the owner comes from
// the dynamic table (recRoute), which also runs the rebalancer and records
// the operation's lane position; otherwise from the static assignment
// table. Callers have already dispatched on Sequential mode and on
// program-owned sets.
func (rt *Runtime) recEnqueue(producer int, set uint64, inv Invocation) int {
	rec := rt.rec
	if rt.cfg.Checked && set == noSetID {
		// The engine reserves this one id as the pool-task sentinel: a
		// user set named by it would have its nested delegations dropped
		// from the outbound ledger, silently voiding the migration safety
		// check, and its faults would never poison it. Turn that into the
		// diagnostic every other discipline violation gets.
		panic("prometheus: serialization set id ^uint64(0) is reserved by the engine (pool-task sentinel); use any other id")
	}
	if fs := rt.faults.Load(); fs != nil && rt.maybeDrop(fs, set) {
		// The set is poisoned this epoch: drop-but-count, touching none of
		// the ledgers (the operation never enters them).
		return rt.ContextFor(set)
	}
	if rec.producers != nil {
		rec.producers.check(set, producer)
	}
	var owner int
	if rec.steal != nil {
		owner = rt.recRoute(producer, set) // bumps laneSent itself
	} else {
		owner = rt.vmap[set%uint64(len(rt.vmap))]
		rec.laneSent[owner-1][producer].add(1)
	}
	d := rec.delegates[owner-1]
	lane := d.lanes[producer].Load()
	if lane == nil {
		lane = spsc.NewLanePooled[Invocation](rt.cfg.QueueCapacity, rec.pool)
		d.lanes[producer].Store(lane)
	}
	if producer == ProgramContext {
		// The program context is never inside a delegation cycle, so it
		// can block on a full ring: bounded-queue backpressure instead of
		// unbounded spill growth when the program outruns the delegates.
		lane.PushBlocking(inv)
	} else {
		// Delegate producers must never block (self-delegation, cycles);
		// ring overflow goes to the lane's spill list.
		lane.Push(inv)
	}
	d.notify(producer)
	return owner
}

// recSend delivers a control or task message from the program context
// straight to a delegate's program lane, keeping the lane ledger
// consistent: every message a lane carries must be counted in laneSent,
// or the delegate's laneExec could overtake a producer's recorded
// positions and make an in-flight set look quiescent.
func (rt *Runtime) recSend(d *recDelegate, inv Invocation) {
	rt.rec.laneSent[d.id-1][ProgramContext].add(1)
	if inv.kind != kindMethod {
		rt.ctl++
	}
	d.lanes[ProgramContext].Load().PushBlocking(inv)
	d.notify(ProgramContext)
}

// recLoop is the body of a delegate: claim pending lanes with one Swap per
// word, drain each claimed lane in batched runs, publish executed progress
// once per run, park when every word stays zero.
func (rt *Runtime) recLoop(d *recDelegate) {
	defer rt.wg.Done()
	buf := make([]Invocation, drainBatchSize)
	adaptive := rt.cfg.Stealing && rt.cfg.AdaptiveSteal
	spin, sampleTick := 0, 0
	// worked records a drain since the delegate last woke. Only then does
	// its going idle carry news for the imbalance EWMA: a delegate that has
	// run nothing since it woke (a fresh pool, a spurious wake) would only
	// re-sample a pool it has not seen change.
	worked := false
	for {
		progress := false
		for w := range d.pending {
			claimed := d.pending[w].Swap(0)
			for claimed != 0 {
				p := w<<6 | bits.TrailingZeros64(claimed)
				claimed &= claimed - 1
				drained, terminate := rt.drainLane(d, p, d.lanes[p].Load(), buf)
				if terminate {
					return
				}
				progress = progress || drained
			}
		}
		if progress {
			worked = true
			if adaptive {
				// Every imbalanceSampleStride-th drain-run boundary: feed the
				// pool-wide occupancy spread into the in-epoch threshold EWMA.
				if sampleTick++; sampleTick >= imbalanceSampleStride {
					sampleTick = 0
					rt.sampleImbalance()
				}
			}
			spin = 0
			continue
		}
		spin++
		if spin < spinBeforeParkRec {
			if spin%4 == 0 {
				if adaptive && worked {
					// An idle delegate is the min-occupancy extreme the
					// imbalance EWMA exists to detect, and it has nothing
					// better to do: sample eagerly here so skew is noticed
					// while the busy path samples only every stride-th run.
					rt.sampleImbalance()
				}
				if spin%16 == 0 {
					runtime.Gosched()
				}
			}
			continue
		}
		// Park until a producer raises a bit. Re-check after arming the
		// sleep flag to avoid a lost wakeup (producers load the flag after
		// their OR).
		d.sleep.Store(recSleeping)
		if d.anyPending() {
			d.sleep.Store(recAwake)
			spin = 0
			continue
		}
		if adaptive && worked {
			// Final sample at the park boundary: a parked delegate
			// contributes nothing to the EWMA while it sleeps, so without
			// this the pool-wide ratio freezes on whatever the spin-down
			// loop last observed — a stale minimum that can hold the
			// threshold away from where the remaining active delegates'
			// real spread would put it. One fresh read of every occupancy
			// with this delegate now at zero resets that sample before the
			// EWMA goes quiet.
			rt.sampleImbalance()
		}
		<-d.wake
		d.sleep.Store(recAwake)
		spin, sampleTick, worked = 0, 0, false
	}
}

// drainLane empties one claimed lane in batched runs: values are popped
// drainBatchSize at a time and executed back to back, with the lane's
// executed counter (laneExec[p]) published once per run rather than once
// per operation. A producer that observes laneExec[p] >= its recorded
// position knows that message, and the FIFO lane prefix before it, has
// finished. It returns whether anything was drained, and whether a
// termination object was served (the loop must exit). Draining to empty is
// what makes the claimed-then-cleared pending bit safe: any value pushed
// after the final empty observation re-raises the bit.
//
// Execution runs in recover()-protected spans (recExecSpan) — one deferred
// recover per batch when fault-free, re-entered after each contained panic
// so the delegate survives and the batch tail still runs against the fresh
// fault state.
func (rt *Runtime) drainLane(d *recDelegate, p int, lane *spsc.Lane[Invocation], buf []Invocation) (drained, terminate bool) {
	le := &d.laneExec[p]
	base := le.Load() // single writer: this delegate
	inject := rt.cfg.FaultInjector
	for {
		n := lane.PopBatch(buf)
		if n == 0 {
			return drained, false
		}
		drained = true
		d.drainBatches.Add(1)
		d.drainedOps.Add(uint64(n))
		i := 0
		for i < n {
			fs := rt.faults.Load()
			next, term := rt.recExecSpan(d, buf, i, n, le, base, fs, inject)
			if term {
				clear(buf[:n])
				return true, true
			}
			i = next
		}
		base += uint64(n)
		le.Store(base)
		if rt.cfg.Stealing && d.covWaiters.Load() != 0 {
			// A producer is parked in waitRecOutboundCoverage on this
			// delegate's laneExec advancing; the store above may be the
			// coverage it needs. One atomic load on the waiter-free path.
			d.covSignal()
		}
		// Drop payload references so executed invocations don't pin their
		// closures and payloads until the buffer is refilled.
		clear(buf[:n])
	}
}

// recExecSpan executes buf[start:n] of one lane under a single deferred
// recover. A recovered panic records the fault (poisoning the set), counts
// the faulted operation as executed, and publishes the lane's executed
// counter before returning, so the quiescence and handoff-coverage proofs
// advance past the faulted operation and the counter publish carries the
// happens-before edge that makes the poison deterministic for every
// observer of those proofs. Operations of a poisoned set are
// skipped-but-counted; a poisoned set is never stolen (maybeMigrate), so
// its backlog always drains on the owner that wrote the poison and the
// skip point stays exact.
func (rt *Runtime) recExecSpan(d *recDelegate, buf []Invocation, start, n int, le *atomic.Uint64, base uint64, fs *faultState, inject func(int, uint64)) (next int, terminated bool) {
	i := start
	defer func() {
		if v := recover(); v != nil {
			rt.recordPanic(d.id, buf[i].set, v)
			le.Store(base + uint64(i) + 1)
			next, terminated = i+1, false
		}
	}()
	for ; i < n; i++ {
		inv := &buf[i]
		switch inv.kind {
		case kindMethod:
			if fs != nil && inv.set != noSetID && fs.lookup(inv.set) != nil {
				fs.dropped.Add(1)
				continue
			}
			if rt.cfg.Stealing {
				// Stamp the producing set before running the operation:
				// nested delegations it issues charge their lane positions
				// to this set's outbound ledger (noteOutbound). One plain
				// store; only this goroutine reads it back.
				d.prodSet = inv.set
			}
			if inject != nil {
				inject(d.id, inv.set)
			}
			inv.invoke(d.id)
		case kindSync:
			// Publish progress before signaling: an observer of done must
			// see every earlier message of this lane counted.
			le.Store(base + uint64(i) + 1)
			close(inv.done)
		case kindTerminate:
			le.Store(base + uint64(i) + 1)
			close(inv.done)
			return i, true
		}
	}
	return n, false
}

// recBarrier waits until every delegate has drained every lane and no
// operation remains in flight: sync rounds repeat until the ledger
// balances across a full quiet round. The sums aggregate single-writer
// per-lane counters — the barrier is the only place the two sides of the
// ledger meet, so the delegation hot path never touches shared quiescence
// state.
func (rt *Runtime) recBarrier() {
	rec := rt.rec
	// Sync only the ACTIVE prefix: a delegate parked by a scale-down has no
	// drain loop to serve the sync (the send would hang forever). Its frozen
	// counters still participate in the ledger sums below — they balanced
	// at park time and stay balanced.
	active := rec.delegates[:rt.cfg.Delegates]
	for {
		before := rec.sentSum()
		dones := make([]chan struct{}, 0, len(active))
		for _, d := range active {
			done := make(chan struct{})
			rt.recSend(d, Invocation{kind: kindSync, done: done})
			dones = append(dones, done)
		}
		for _, done := range dones {
			rt.waitDone(done)
		}
		// Quiet round: nothing but this round's syncs was sent since
		// `before`, and every message sent has executed. The executed side
		// is read first: exec <= sent per lane at every instant, and both
		// only grow, so equal sums read in this order prove the ledger
		// balanced at the moment between the two reads.
		quiet := before + uint64(len(active))
		if rec.execSum() == quiet && rec.sentSum() == quiet {
			break
		}
	}
	for i := range active {
		rt.synced[i] = rec.laneSent[i][ProgramContext].n.Load()
	}
}

// recTerminate drains and shuts down the delegate pool.
func (rt *Runtime) recTerminate() {
	rt.recBarrier()
	for _, d := range rt.rec.delegates[:rt.cfg.Delegates] {
		done := make(chan struct{})
		rt.recSend(d, Invocation{kind: kindTerminate, done: done})
		rt.waitDone(done)
	}
}
