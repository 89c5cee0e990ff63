// Package core implements the Prometheus runtime for the serialization-sets
// execution model (Allen, Sridharan & Sohi, PPoPP 2009): a program context
// that delegates operations, a pool of delegate contexts each fed by
// private FastForward-style SPSC lanes, virtual-delegate assignment, epoch
// management, ownership synchronization, and per-phase instrumentation.
//
// There is one engine (recursive.go): every delegate owns one inbound lane
// per producer context. The program context writes to lane 0 of each
// delegate — the paper's single SPSC queue per delegate — and, with
// Config.Recursive, delegated operations may delegate further through the
// lanes of their own context. Placement is the paper's static table or,
// under LeastLoaded, a dynamic owner table (recsteal.go) that Stealing lets
// migrate whole sets at quiescent points.
//
// The delegation hot path is built to cost zero heap allocations and O(1)
// work in steady state: invocation records travel by value through
// sequence-stamped rings (no per-operation allocation), wrapper layers
// delegate through static trampolines (no per-call closure), and every
// counter the scheduler reads is single-writer.
//
// This package is the engine; the exported user-facing API (wrappers,
// serializers, reducibles) lives in the repository root package prometheus.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// timeNow is a seam kept trivial; trace timestamps flow through it.
func timeNow() time.Time { return time.Now() }

// ProgramContext is the context id of the program thread. Delegate contexts
// are numbered 1..Delegates.
const ProgramContext = 0

// Runtime orchestrates parallel execution of delegated operations. All
// methods must be called from the program context (the goroutine that called
// New), except none: delegated closures interact with the runtime only
// through the context id they are handed.
type Runtime struct {
	// cfg is the effective configuration. All fields are immutable after
	// New EXCEPT Delegates, which the program context rewrites at the
	// epoch boundary that applies a Reconfigure (applyReconfig). Plain
	// reads of cfg.Delegates are sound only on the program context or
	// inside delegated operations (the lane push-pop atomics carry the
	// happens-before edge from the post-barrier write to any op delegated
	// after it); any other reader — idle drain-loop samplers, metrics
	// scrapes — must use the atomic active counter instead.
	cfg Config

	wg sync.WaitGroup

	// active mirrors cfg.Delegates behind an atomic, for readers with no
	// happens-before edge to the program context's epoch-boundary write
	// (imbalance samplers in idle spin loops, QueueDepths on metrics
	// scrapes, re-home decisions on delegate producers). 0 in Sequential
	// mode.
	active atomic.Int32

	// Runtime-mutable configuration, cc-relay style: Reconfigure
	// validates and Stores the desired state into pendingCfg from any
	// goroutine; the program context Swaps it out and applies it at the
	// next BeginIsolation, then publishes the effective state through
	// runtimeCfg (the Get side).
	pendingCfg atomic.Pointer[RuntimeConfig]
	runtimeCfg atomic.Pointer[RuntimeConfig]

	// baseThr is the current StealThreshold base — cfg.StealThreshold
	// until a Reconfigure rebases it. Atomic because the drain-loop
	// samplers (noteImbalance) read it concurrently with the program
	// context's epoch-boundary rebase.
	baseThr atomic.Int64

	// vmap maps virtual delegate -> context id (ProgramContext or 1..D).
	vmap []int

	epoch       uint64 // isolation epochs begun; wrappers version state on it
	inIsolation bool
	terminated  bool

	// rec is the lane engine: the delegate pool, its lane matrix and
	// ledgers (nil in Sequential mode, which has no pool).
	rec *recState

	// synced[d] is the program-lane position (laneSent[d][0]) delegate d+1
	// was last proven caught up to, by a SyncContext or a barrier. A
	// delegate whose program lane has not moved since needs no sync.
	// Program-context private.
	synced []uint64

	// ctl counts the control messages (syncs, terminates) the program
	// context has sent, so Stats can report the lanes' method traffic
	// from the all-message ledger. Program-context private.
	ctl uint64

	// adaptiveThr is the effective StealThreshold under AdaptiveSteal,
	// re-derived by drain-loop samplers from imbalanceEWMA (recsteal.go);
	// it starts at the configured base. imbalanceEWMA tracks the max/min
	// delegate-occupancy ratio in ewmaFP fixed point; thresholdAdjusts
	// counts effective-threshold changes (Stats.ThresholdAdjusts).
	adaptiveThr      atomic.Int64
	imbalanceEWMA    atomic.Int64
	thresholdAdjusts atomic.Uint64

	// faults is the fault-containment record (fault.go): nil until the
	// first contained panic, so the fault-free hot path pays one atomic
	// load and no allocation.
	faults atomic.Pointer[faultState]

	// traceSt holds trace buffers (nil unless Config.Trace).
	traceSt    *traceState
	epochStart time.Time

	stats Stats
	clock phaseClock
}

// New creates and starts a runtime (paper: initialize()). The calling
// goroutine becomes the program context.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	cfg.validate()
	rt := &Runtime{
		cfg:   cfg,
		vmap:  buildAssignment(cfg),
		clock: newPhaseClock(),
	}
	rt.baseThr.Store(int64(cfg.StealThreshold))
	rt.adaptiveThr.Store(int64(cfg.StealThreshold))
	rt.imbalanceEWMA.Store(ewmaFP) // ratio 1.0: assume balance until sampled
	rt.runtimeCfg.Store(&RuntimeConfig{Delegates: cfg.Delegates, StealThreshold: cfg.StealThreshold})
	if cfg.Trace {
		rt.traceSt = newTraceState(cfg.MaxDelegates + 1)
	}
	if cfg.Sequential {
		return rt // no delegate goroutines at all in debug mode
	}
	rt.active.Store(int32(cfg.Delegates))
	rt.synced = make([]uint64, cfg.MaxDelegates)
	rt.initLanes()
	return rt
}

// buildAssignment constructs the virtual-delegate table (paper §4): the
// first ProgramShare virtual delegates map to the program context, the rest
// round-robin across delegate contexts.
func buildAssignment(cfg Config) []int {
	vmap := make([]int, cfg.VirtualDelegates)
	for v := range vmap {
		if v < cfg.ProgramShare {
			vmap[v] = ProgramContext
		} else {
			vmap[v] = (v-cfg.ProgramShare)%cfg.Delegates + 1
		}
	}
	return vmap
}

// Config returns the effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// NumContexts returns the number of execution contexts (program + delegate
// CAPACITY); context ids are in [0, NumContexts). It reports MaxDelegates+1
// — the pre-allocated pool ceiling, not the live size — and is immutable
// for the runtime's whole life, so per-context arrays sized from it at
// construction (reducible views, Ctx tables) stay valid across every
// Resize. Use ActiveDelegates for the live pool size.
func (rt *Runtime) NumContexts() int { return rt.cfg.MaxDelegates + 1 }

// ActiveDelegates returns the number of currently-active delegate contexts
// (0 in Sequential mode). Safe from any goroutine.
func (rt *Runtime) ActiveDelegates() int { return int(rt.active.Load()) }

// Epoch returns the current isolation-epoch number. It is 0 before the first
// BeginIsolation; wrappers use it to lazily version their state machines.
func (rt *Runtime) Epoch() uint64 { return rt.epoch }

// InIsolation reports whether an isolation epoch is open.
func (rt *Runtime) InIsolation() bool { return rt.inIsolation }

// BeginIsolation opens an isolation epoch (paper: begin_isolation()).
func (rt *Runtime) BeginIsolation() {
	if rt.terminated {
		panic("prometheus: BeginIsolation after Terminate")
	}
	if rt.inIsolation {
		panic("prometheus: nested BeginIsolation")
	}
	rt.epoch++
	rt.inIsolation = true
	rt.stats.Epochs++
	if rt.traceSt != nil {
		rt.epochStart = timeNow()
	}
	rt.applyReconfig()
	if rt.cfg.AdaptiveSteal {
		// The imbalance EWMA and the threshold/ratio it derives are
		// documented as IN-epoch adaptation, and the samples they were
		// built from describe the closing epoch's placement — including
		// delegates that have since drained and parked, whose stale
		// minima would otherwise keep a spun-down pool's skew (or
		// balance) alive into a workload that no longer has it. A new
		// epoch starts from the configured base and re-learns its own
		// spread within a few drain runs. The base is read through baseThr
		// (not cfg) so a Reconfigure'd threshold — applied just above —
		// takes effect this epoch.
		rt.imbalanceEWMA.Store(ewmaFP)
		rt.adaptiveThr.Store(rt.baseThr.Load())
	}
	if !rt.cfg.Sequential {
		if rt.rec.producers != nil {
			rt.rec.producers.reset()
		}
		if st := rt.rec.steal; st != nil {
			// New epoch, new owner table: under stealing the closing
			// epoch's hottest sets are pre-placed across the (possibly just
			// resized) pool; otherwise every set re-places on first touch.
			hot := 0
			if rt.cfg.Stealing {
				hot = hotSeedCount(rt.cfg.Delegates)
			}
			rt.stats.HotSetsPlaced += uint64(st.reseed(rt.cfg.Delegates, hot, rt.entryProducers()))
		}
	}
	if fs := rt.faults.Load(); fs != nil {
		// Poisoning is epoch-scoped: the new epoch starts with a clean
		// slate (fault records persist). Cleared AFTER the owner table was
		// rebuilt above, so the hot-set ranking could still exclude the
		// closing epoch's poisoned sets.
		fs.resetPoison()
	}
	rt.clock.switchTo(PhaseIsolation, &rt.stats)
}

// EndIsolation synchronizes the program context with all delegate contexts
// and reverts to an aggregation epoch (paper: end_isolation()).
func (rt *Runtime) EndIsolation() {
	if !rt.inIsolation {
		panic("prometheus: EndIsolation without BeginIsolation")
	}
	rt.barrier()
	rt.inIsolation = false
	if rt.traceSt != nil {
		rt.traceSt.record(ProgramContext, TraceEpoch, uint64(rt.epoch), rt.epochStart, timeNow())
	}
	rt.clock.switchTo(PhaseAggregation, &rt.stats)
}

// Resize requests the delegate pool be resized to n active delegates. The
// request is validated immediately and recorded; the PROGRAM CONTEXT
// applies it at the next BeginIsolation — the engine's quiescent point,
// where the epoch barrier has proven no operation in flight, the owner
// table is about to rebuild, and hot sets re-place across whatever pool
// opens the epoch. Safe from any goroutine; concurrent requests follow
// last-store-wins (Get/Store semantics on the runtime config pointer).
func (rt *Runtime) Resize(n int) error {
	return rt.Reconfigure(RuntimeConfig{Delegates: n})
}

// Reconfigure records a runtime-mutable configuration change (pool size,
// steal-threshold base) to be applied at the next epoch boundary. Zero
// fields keep their current setting. Safe from any goroutine. Returns a
// descriptive error — never a deferred panic — when the target is outside
// what the pre-allocated pool can honor.
func (rt *Runtime) Reconfigure(rc RuntimeConfig) error {
	if err := rt.cfg.validateReconfig(rc); err != nil {
		return err
	}
	c := rc
	rt.pendingCfg.Store(&c)
	return nil
}

// RuntimeConfig returns the current effective runtime-mutable
// configuration (the Get side of the atomic config pointer). Safe from any
// goroutine; a pending Reconfigure is reflected only after the epoch
// boundary that applies it.
func (rt *Runtime) RuntimeConfig() RuntimeConfig { return *rt.runtimeCfg.Load() }

// applyReconfig applies a pending Reconfigure at the epoch boundary.
// Called by BeginIsolation on the program context, BEFORE the adaptive
// threshold reset (so a rebased threshold seeds this epoch's EWMA) and
// before the owner table rebuilds and hot sets re-place (so placement
// state is constructed for the NEW pool, never patched afterwards).
//
// Scale-up activates pre-built delegates: spawn their drain goroutines,
// widen the assignment table, and let this epoch's seeding spread hot sets
// across the larger pool. Scale-down is the forced-evacuation argument in
// pool form: the barrier below proves every set quiescent on every
// delegate — the same whole-set handoff boundary the stealer uses, applied
// to all sets at once — so the retiring delegates' sets are re-placed by
// the very table rebuild this epoch performs anyway, and the retirees park
// permanently with balanced lane ledgers.
func (rt *Runtime) applyReconfig() {
	rc := rt.pendingCfg.Swap(nil)
	if rc == nil {
		return
	}
	if rc.StealThreshold > 0 {
		rt.baseThr.Store(int64(rc.StealThreshold))
	}
	n := rc.Delegates
	if n == 0 {
		n = rt.cfg.Delegates
	}
	old := rt.cfg.Delegates
	if n != old {
		rt.resizePool(n, old)
	}
	eff := RuntimeConfig{Delegates: n, StealThreshold: int(rt.baseThr.Load())}
	rt.runtimeCfg.Store(&eff)
}

// resizePool performs the pool-size half of applyReconfig: barrier, count
// evacuees, park or spawn, republish. Program context only, at the top of
// an isolation epoch.
func (rt *Runtime) resizePool(n, old int) {
	// Prove the OLD pool quiescent first. BeginIsolation does not imply a
	// barrier on its own (aggregation-epoch delegations may still be in
	// flight); the resize point must be one.
	rt.recBarrier()
	// Count the sets a scale-down evacuates off retiring delegates. The
	// barrier proved them quiescent everywhere, so "evacuation" is exact
	// re-placement by the epoch's table rebuild — nothing is copied or
	// drained here; the count is the observability record of how much
	// placement state the shrink displaced.
	evacuated := 0
	if n < old {
		if st := rt.rec.steal; st != nil {
			st.owners.Load().forEach(func(_ uint64, e *recSetEntry) {
				if int(e.owner.Load()) > n {
					evacuated++
				}
			})
		} else {
			// Static placement: count assignment-table slots that pointed
			// at retiring delegates (the sets behind them are unbounded;
			// the slots are the placement state being displaced).
			for _, ctx := range rt.vmap {
				if ctx > n {
					evacuated++
				}
			}
		}
		rt.parkDelegates(n, old)
	}
	// The assignment table, owner table, and hot-set seeding all derive
	// from cfg.Delegates: rewrite it, publish the atomic mirror, and
	// rebuild the static table before any of them run for this epoch.
	rt.cfg.Delegates = n
	rt.active.Store(int32(n))
	rt.vmap = buildAssignment(rt.cfg)
	for i := old; i < n; i++ {
		rt.wg.Add(1)
		go rt.recLoop(rt.rec.delegates[i])
	}
	rt.stats.Resizes++
	rt.stats.ResizeEvacuatedSets += uint64(evacuated)
	if ts := rt.traceSt; ts != nil {
		ts.recordResizeEvent(uint64(n), rt.epoch, timeNow())
	}
}

// parkDelegates retires delegates n..old-1: each is sent a termination
// object and its goroutine exits once served. Lane state is NOT torn down
// — a later scale-up respawns the loop over the same structures, resuming
// the published counters where they stopped. In Checked mode the
// quiescence the caller's barrier proved is re-asserted per retiree:
// balanced per-lane sent/exec ledgers — no lane traffic survives a retired
// delegate.
func (rt *Runtime) parkDelegates(n, old int) {
	rec := rt.rec
	for i := n; i < old; i++ {
		d := rec.delegates[i]
		done := make(chan struct{})
		rt.recSend(d, Invocation{kind: kindTerminate, done: done})
		rt.waitDone(done)
		if rt.cfg.Checked {
			for p := range d.laneExec {
				sent := rec.laneSent[i][p].n.Load()
				exec := d.laneExec[p].Load()
				if sent != exec {
					panic(fmt.Sprintf(
						"prometheus: resize: retiring delegate %d parked with lane %d unbalanced (sent=%d exec=%d) — traffic survived a retired delegate",
						d.id, p, sent, exec))
				}
			}
		}
	}
}

// ContextFor returns the context id that operations in the given
// serialization set execute on (or would execute on), under the configured
// policy. It is a pure query: under LeastLoaded an unowned set is not
// assigned an owner — only a delegation does that (see recRoute).
func (rt *Runtime) ContextFor(set uint64) int {
	if rt.cfg.Sequential {
		return ProgramContext
	}
	if st := rt.rec.steal; st != nil {
		if e := st.owners.Load().lookup(set); e != nil {
			return int(e.owner.Load())
		}
		return rt.seedOwner(set)
	}
	return rt.vmap[set%uint64(len(rt.vmap))]
}

// programOwned reports whether set falls in the program context's share of
// the static assignment table (Config.ProgramShare): its operations run
// inline on the program context. Never true under LeastLoaded, whose owner
// table places every set on a delegate, or under Recursive, which rejects
// ProgramShare.
func (rt *Runtime) programOwned(set uint64) bool {
	return rt.cfg.ProgramShare > 0 && rt.rec.steal == nil &&
		rt.vmap[set%uint64(len(rt.vmap))] == ProgramContext
}

// Delegate assigns fn to the serialization set's context and returns that
// context id. Operations mapped to the program context (or every operation
// in Sequential mode) run inline, preserving per-set program order.
func (rt *Runtime) Delegate(set uint64, fn func(ctx int)) int {
	if rt.terminated {
		panic("prometheus: Delegate after Terminate")
	}
	fn = rt.traceExec(set, fn)
	if rt.cfg.Sequential || rt.programOwned(set) {
		rt.stats.InlineExecs++
		fn(ProgramContext)
		return ProgramContext
	}
	rt.stats.Delegations++
	return rt.recEnqueue(ProgramContext, set, Invocation{kind: kindMethod, set: set, fn: fn})
}

// DelegateCall is the zero-allocation delegation fast path: instead of a
// closure it takes a static trampoline plus two payload words, written by
// value into the program context's ring lane on the set's owner. Wrapper
// layers bind one trampoline per wrapper type, so a steady-state
// DelegateCall performs no heap allocation and O(1) work. Only tracing
// falls back to the closure path (off the measured configuration, as in
// the paper's evaluation).
func (rt *Runtime) DelegateCall(set uint64, tr Trampoline, p1, p2 unsafe.Pointer) int {
	if rt.terminated {
		panic("prometheus: Delegate after Terminate")
	}
	if rt.traceSt != nil {
		return rt.Delegate(set, func(ctx int) { tr(ctx, p1, p2) })
	}
	if rt.cfg.Sequential || rt.programOwned(set) {
		rt.stats.InlineExecs++
		tr(ProgramContext, p1, p2)
		return ProgramContext
	}
	rt.stats.Delegations++
	return rt.recEnqueue(ProgramContext, set,
		Invocation{kind: kindMethod, set: set, tramp: tr, p1: p1, p2: p2})
}

// DelegateFrom routes a delegation issued by an arbitrary execution context
// (recursive delegation). producer must be the context id actually running
// the call. Requires Config.Recursive (or Sequential debug mode).
func (rt *Runtime) DelegateFrom(producer int, set uint64, fn func(ctx int)) int {
	if rt.cfg.Sequential {
		rt.stats.InlineExecs++
		fn(ProgramContext)
		return ProgramContext
	}
	if !rt.cfg.Recursive {
		panic("prometheus: recursive delegation requires the Recursive option")
	}
	return rt.recEnqueue(producer, set, Invocation{kind: kindMethod, set: set, fn: rt.traceExec(set, fn)})
}

// DelegateFromCall is the zero-allocation counterpart of DelegateFrom: the
// trampoline fast path for delegations issued from inside delegated
// operations. Like DelegateCall it takes a static trampoline plus two
// payload words and writes the invocation record by value into the
// producer's ring lane on the set's owner — no closure, no heap
// allocation, no contended counter. producer must be the context id
// actually running the call. Tracing falls back to the closure path.
func (rt *Runtime) DelegateFromCall(producer int, set uint64, tr Trampoline, p1, p2 unsafe.Pointer) int {
	if rt.cfg.Sequential {
		rt.stats.InlineExecs++
		tr(ProgramContext, p1, p2)
		return ProgramContext
	}
	if rt.traceSt != nil {
		return rt.DelegateFrom(producer, set, func(ctx int) { tr(ctx, p1, p2) })
	}
	if !rt.cfg.Recursive {
		panic("prometheus: recursive delegation requires the Recursive option")
	}
	return rt.recEnqueue(producer, set,
		Invocation{kind: kindMethod, set: set, tramp: tr, p1: p1, p2: p2})
}

// Recursive reports whether recursive delegation is enabled.
func (rt *Runtime) Recursive() bool { return rt.cfg.Recursive && !rt.cfg.Sequential }

// SyncContext blocks until the given delegate context has executed every
// invocation enqueued before this call (paper: synchronization objects). It
// is how the program context reclaims ownership of a data domain. Syncing
// the program context is a no-op.
func (rt *Runtime) SyncContext(ctx int) {
	if ctx == ProgramContext || rt.cfg.Sequential {
		return
	}
	if rt.cfg.Recursive {
		// Under recursion a single-lane sync cannot witness work produced
		// by other contexts; fall back to the quiescence barrier.
		rt.stats.Syncs++
		rt.recBarrier()
		return
	}
	if ctx < 1 || ctx > rt.cfg.Delegates {
		panic(fmt.Sprintf("prometheus: SyncContext(%d) out of range", ctx))
	}
	// The program is the only producer, so one sync on the delegate's
	// program lane is ordered after everything delegated to it.
	sent := &rt.rec.laneSent[ctx-1][ProgramContext].n
	if sent.Load() == rt.synced[ctx-1] {
		return // nothing delegated to it since it was last proven caught up
	}
	rt.stats.Syncs++
	done := make(chan struct{})
	rt.recSend(rt.rec.delegates[ctx-1], Invocation{kind: kindSync, done: done})
	rt.waitDone(done)
	rt.synced[ctx-1] = sent.Load()
}

// SyncSet blocks until all outstanding operations in the given serialization
// set have completed. Under the LeastLoaded policy, a set that was never
// delegated this epoch has no owner and nothing to wait for.
func (rt *Runtime) SyncSet(set uint64) {
	if rt.cfg.Sequential {
		return
	}
	if st := rt.rec.steal; st != nil {
		// Under stealing, syncing the current owner suffices: a handoff only
		// happens at a quiescent boundary, so any operation that ran on a
		// previous owner had already completed before the current owner
		// received its first one.
		if e := st.owners.Load().lookup(set); e != nil {
			rt.SyncContext(int(e.owner.Load()))
		}
		return
	}
	rt.SyncContext(rt.ContextFor(set))
}

// barrier waits until every delegate has drained every lane.
func (rt *Runtime) barrier() {
	if rt.cfg.Sequential {
		return
	}
	rt.stats.Barriers++
	rt.recBarrier()
}

// Sleep quiesces the delegate contexts during a long aggregation epoch
// (paper: sleep()). Delegates with empty lanes park automatically in this
// implementation, so Sleep reduces to a barrier that guarantees they have
// all drained and parked.
func (rt *Runtime) Sleep() {
	if rt.inIsolation {
		panic("prometheus: Sleep during isolation epoch")
	}
	rt.barrier()
}

// RunParallel executes the given tasks on the delegate pool, round-robin,
// and waits for completion. The runtime uses it for parallel reductions
// (paper §2.2: N/2 combine operations per step run concurrently). ctx ids
// are passed through so tasks can address per-context state. Must be called
// during an aggregation epoch. In Sequential mode tasks run inline, in
// order.
func (rt *Runtime) RunParallel(tasks []func(ctx int)) {
	if rt.inIsolation {
		panic("prometheus: RunParallel during isolation epoch")
	}
	if rt.cfg.Sequential {
		for _, t := range tasks {
			t(ProgramContext)
		}
		return
	}
	for i, t := range tasks {
		// noSetID: a pool task belongs to no serialization set — it must
		// not collide with a user set in the poison table when it faults,
		// and nested delegations it issues must not be charged to whatever
		// set the delegate executed last (outbound attribution,
		// recsteal.go).
		rt.recSend(rt.rec.delegates[i%rt.cfg.Delegates], Invocation{kind: kindMethod, set: noSetID, fn: t})
	}
	rt.barrier()
}

// EnterReduction switches phase accounting to reduction time; the matching
// ExitReduction returns to aggregation. Used by the reducible framework so
// Figure 5a can separate reduction cost.
func (rt *Runtime) EnterReduction() { rt.clock.switchTo(PhaseReduction, &rt.stats) }

// ExitReduction ends a reduction accounting span.
func (rt *Runtime) ExitReduction() { rt.clock.switchTo(PhaseAggregation, &rt.stats) }

// Stats returns a snapshot of the runtime counters with the current phase's
// elapsed time folded in and the delegate-side drain counters aggregated.
func (rt *Runtime) Stats() Stats {
	st := rt.stats
	if !rt.cfg.Sequential {
		rec := rt.rec
		st.RecursiveOps = rec.sentSum() - rt.ctl
		for _, d := range rec.delegates {
			st.DrainBatches += d.drainBatches.Load()
			st.DrainedOps += d.drainedOps.Load()
			for p := range d.lanes {
				if lane := d.lanes[p].Load(); lane != nil {
					st.Spills += lane.Spills()
				}
			}
		}
		if steal := rec.steal; steal != nil {
			for i := range steal.migrations {
				n := steal.migrations[i].n.Load()
				st.Steals += n
				st.Handoffs += n
				st.ForcedEvacs += steal.forcedEvacs[i].n.Load()
				st.OutboundVetoes += steal.outVetoes[i].n.Load()
				st.OutboundTracked += steal.outStamps[i].n.Load()
			}
		}
	}
	st.ThresholdAdjusts = rt.thresholdAdjusts.Load()
	if fs := rt.faults.Load(); fs != nil {
		st.Panics = fs.panics.Load()
		st.PoisonedSets = fs.poisonedSets.Load()
		st.DroppedOps = fs.dropped.Load()
		st.DroppedFaults = fs.droppedRec.Load()
	}
	clk := rt.clock
	clk.switchTo(clk.phase, &st) // charge the open span without mutating rt
	return st
}

// Terminate shuts the runtime down (paper: terminate()). It drains
// outstanding work, sends termination objects to all active delegates, and
// reclaims the goroutines. The runtime is unusable afterwards.
func (rt *Runtime) Terminate() {
	if rt.terminated {
		return
	}
	if rt.inIsolation {
		rt.EndIsolation()
	}
	rt.terminated = true
	if !rt.cfg.Sequential {
		rt.recTerminate()
	}
	rt.wg.Wait()
	rt.clock.switchTo(PhaseAggregation, &rt.stats)
}
