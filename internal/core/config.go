package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/spsc"
)

// DefaultWatchdog is the no-progress bound the barrier watchdog uses when
// Checked mode is on and Config.Watchdog was left zero. Generous on
// purpose: the watchdog exists to turn a wedged barrier from a silent hang
// (or a CI timeout) into a state dump, not to police slow operations.
const DefaultWatchdog = 30 * time.Second

// DefaultFaultRecordBound is the default cap on retained contained-panic
// records (Config.FaultRecordBound). 1024 full stack captures is roughly a
// few tens of megabytes worst case — enough history to diagnose a fault
// storm, small enough that a server containing panics for weeks holds
// steady-state memory.
const DefaultFaultRecordBound = 1024

// MinStealThreshold/MaxStealThreshold clamp the adaptive StealThreshold
// default. When the option is unset, the victim backlog at which the
// occupancy-aware rebalancer engages is derived from the queue capacity
// (QueueCapacity/4): a deep ring tolerates a deeper backlog before a
// handoff pays, a shallow ring saturates — and starts blocking the
// producer — after only a few operations. The clamp keeps the derived
// value above transient two-or-three-deep pipelining (never below 4) and
// below the point where a victim must be hundreds of operations behind
// before anyone helps (never above 64).
const (
	MinStealThreshold = 4
	MaxStealThreshold = 64
)

// Thief-eligibility ratio clamps. A steal requires the thief to be idle or
// at most 1/R as loaded as the victim; R defaults to defaultStealRatio and,
// under AdaptiveSteal, tracks the same imbalance EWMA as the threshold —
// skewed epochs relax it toward minStealRatio so help arrives even when no
// peer is dramatically idler, balanced epochs tighten it toward
// maxStealRatio-bounded stickiness. An explicit WithStealThreshold pins
// both the threshold and the ratio (AdaptiveSteal off).
const (
	defaultStealRatio = 4
	minStealRatio     = 2
	maxStealRatio     = 8
)

// drainBatchSize bounds the delegate-side drain buffer: the delegate
// PopBatches up to this many invocations from a claimed lane and executes
// them without re-arming the wake machinery. 64 invocation-sized records
// is 4KB per delegate — enough to amortize the ledger publish and
// producer-signal stores across deep backlogs without hoarding a large
// resident buffer.
const drainBatchSize = 64

// spinBeforeParkRec bounds a delegate's busy-wait over its pending-lane
// bitmask before it parks on its wake channel. The re-check is O(words),
// so the loop can afford the same order of spin as the SPSC lanes.
const spinBeforeParkRec = 128

// SchedPolicy selects how serialization sets are assigned to delegate
// contexts.
type SchedPolicy int

const (
	// StaticMod is the paper's policy (§4): the serialization-set id modulo
	// the number of virtual delegates picks a virtual delegate, and a fixed
	// table maps virtual delegates to physical contexts.
	StaticMod SchedPolicy = iota
	// LeastLoaded is the dynamic-scheduling extension the paper names as
	// future work: the first operation of a set in an epoch is assigned to
	// the delegate with the smallest backlog, and the set stays sticky to
	// that delegate for the rest of the epoch (preserving per-set
	// ordering). With Stealing, first touch uses the static table instead
	// and sets migrate whole at quiescent points.
	LeastLoaded
)

func (p SchedPolicy) String() string {
	switch p {
	case StaticMod:
		return "static-mod"
	case LeastLoaded:
		return "least-loaded"
	default:
		return "unknown"
	}
}

// Config parameterizes a Runtime. The zero value is usable: it selects
// GOMAXPROCS-1 delegates, the paper's static modulus policy, and no program-
// context share.
type Config struct {
	// Delegates is the number of delegate contexts (paper: delegate
	// threads). Default: GOMAXPROCS-1, minimum 1. Under live
	// reconfiguration this is only the INITIAL pool size: Resize /
	// Reconfigure may move the active count anywhere in [1, MaxDelegates]
	// at epoch boundaries.
	Delegates int

	// MaxDelegates is the pool capacity ceiling for live reconfiguration:
	// every per-delegate structure (queues, lanes, ledgers, trace buffers,
	// per-context views) is pre-allocated for MaxDelegates at New, and
	// Resize/Reconfigure may activate any pool size up to it without
	// reallocating — which is what keeps NumContexts immutable and the
	// per-context arrays the wrappers sized at construction valid for the
	// runtime's whole life. Defaults to Delegates (a fixed pool, no
	// reconfiguration headroom). Each delegate of capacity costs one
	// program-lane ring up front; under recursion every delegate that
	// delegates adds one ring per delegate it feeds, built on first use.
	MaxDelegates int

	// VirtualDelegates is the number of virtual delegates used by the
	// static assignment table (paper §4). It must be >= Delegates. Default:
	// 4 * (Delegates + program share), giving the modulus some slack to
	// spread sets.
	VirtualDelegates int

	// ProgramShare is the number of virtual delegates assigned to the
	// program context itself (the paper's assignment ratio): operations in
	// those sets execute inline in the program thread. Default 0.
	ProgramShare int

	// QueueCapacity sizes each lane's bounded ring: the program context's
	// queue to each delegate and, under recursion, each delegate-to-delegate
	// lane (overflow from a delegate producer goes to the lane's unbounded
	// spill list; the program context blocks instead). Default
	// spsc.DefaultCapacity.
	QueueCapacity int

	// DelegateBatch has no effect: every delegation is written straight
	// into its delegate's lane.
	//
	// Deprecated: kept so existing configurations compile.
	DelegateBatch int

	// Sequential enables the paper's debug mode (§3.3): every delegation
	// executes inline in the program context, in program order, while all
	// serializers and dynamic checks still run. The program computes the
	// same answers with a single goroutine.
	Sequential bool

	// Checked enables the dynamic error detection of §3.3 (serializer
	// consistency tagging, partition state machines). Benchmarks disable it,
	// as the paper does for its performance measurements.
	Checked bool

	// Policy selects the delegate-assignment policy.
	Policy SchedPolicy

	// Stealing enables the occupancy-aware work-stealing extension to the
	// LeastLoaded policy: when a set's sticky owner has at least
	// StealThreshold outstanding operations and the set itself is quiescent
	// (every operation previously delegated to it has executed), the next
	// delegation hands the whole set off to the delegate with the smallest
	// occupancy, provided that delegate is idle or at most a quarter as
	// loaded as the victim. Whole sets — never individual invocations — are
	// the steal unit, so per-set program order is preserved by construction.
	// Requires Policy == LeastLoaded. Under recursion the handoff
	// additionally waits for every producer's lane position on the set to
	// be covered by the owner's per-lane executed counters (see
	// internal/core/recsteal.go).
	Stealing bool

	// StealThreshold is the victim backlog (outstanding operations) at which
	// stealing engages. When unset it is derived from the queue capacity
	// (QueueCapacity/4, clamped to [MinStealThreshold, MaxStealThreshold])
	// and then adapts *within* each epoch to the observed max/min
	// delegate-occupancy ratio (AdaptiveSteal). An explicit setting is
	// fixed for the run. Ignored unless Stealing is set.
	StealThreshold int

	// AdaptiveSteal marks the StealThreshold as runtime-adaptive: the
	// effective threshold tracks an EWMA of the max/min delegate-occupancy
	// ratio sampled at drain-run boundaries, clamped to [MinStealThreshold,
	// MaxStealThreshold] — skewed epochs rebalance eagerly, balanced epochs
	// keep ownership sticky. Set by withDefaults when StealThreshold was
	// left unset; an explicit threshold disables adaptation.
	AdaptiveSteal bool

	// Trace enables execution tracing: every delegated-operation execution,
	// synchronization, epoch transition, and whole-set steal is recorded
	// with timestamps into per-context buffers, retrievable via
	// Runtime.TraceEvents.
	Trace bool

	// LegacyOutboundVeto restores PR 4's conservative outbound-drain
	// condition for recursive whole-set migration: a set may leave its
	// owner only when EVERY lane the owner feeds as a producer is fully
	// drained, regardless of which set's operations pushed into it. The
	// default (false) uses the precise per-set outbound ledger instead —
	// only the migrating set's own recorded outbound traffic must be
	// covered. The legacy veto is strictly stronger, so it is safe but has
	// a documented liveness hole: a set force-evacuated off its own
	// producer's delegate can be vetoed forever by unrelated in-flight
	// lanes, and a program that blocks mid-operation on its own nested
	// delegations then livelocks. Kept as a debugging/negative-control
	// knob (the livelock regression stress runs under it to prove the
	// hang); not exposed as a public Option.
	LegacyOutboundVeto bool

	// Recursive permits recursive delegation (the paper's named future-work
	// extension): delegated operations may delegate further operations
	// through their execution context (DelegateFrom, Ctx.Delegate). It
	// selects no engine — every runtime runs on the lane engine — and, in
	// Checked mode without stealing, turns on the one-producer-per-set
	// check. Requires StaticMod (or LeastLoaded with Stealing) and a zero
	// ProgramShare; see internal/core/recursive.go for the semantics.
	Recursive bool

	// FaultInjector, when non-nil, is invoked on the executing delegate
	// immediately before each delegated method invocation runs, with the
	// executing context id and the operation's serialization set (NoSet for
	// pool tasks). A panic thrown by the hook is contained exactly like a
	// panic in the operation itself — the seam the chaos-injection harness
	// (internal/chaos) drives. Internal testing knob, deliberately not
	// exposed as a public Option; a nil hook costs the drain loops one
	// hoisted nil check.
	FaultInjector func(ctx int, set uint64)

	// FaultRecordBound caps how many contained-panic records the runtime
	// retains (internal/core/fault.go): the record store is a ring that
	// evicts the oldest fault once the bound is reached, counting evictions
	// in Stats.DroppedFaults. Unbounded retention is fatal for a
	// long-running server — every contained panic pins its captured stack —
	// while the error surface (Err/SetErr) only ever needs the recent
	// window. Poison state and the fault counters are unaffected by
	// eviction. Default DefaultFaultRecordBound.
	FaultRecordBound int

	// Watchdog bounds how long a blocking synchronization (SyncContext,
	// barrier/EndIsolation, Terminate) will wait while no delegate
	// publishes any progress before panicking with a dump of per-delegate
	// queue depths and ledger positions — turning a wedged barrier into an
	// actionable report instead of a silent hang. Progress is measured by
	// the published executed/drain counters, so a single legitimate
	// operation that runs longer than the bound is indistinguishable from a
	// wedge: size it above the longest operation the program runs. Zero
	// selects the default (DefaultWatchdog when Checked is on, disabled
	// otherwise); negative disables it explicitly.
	Watchdog time.Duration
}

// withDefaults returns a copy of c with unset fields filled in.
func (c Config) withDefaults() Config {
	if c.Delegates <= 0 {
		c.Delegates = runtime.GOMAXPROCS(0) - 1
		if c.Delegates < 1 {
			c.Delegates = 1
		}
	}
	if c.ProgramShare < 0 {
		c.ProgramShare = 0
	}
	if c.MaxDelegates < c.Delegates {
		c.MaxDelegates = c.Delegates
	}
	if c.VirtualDelegates <= 0 {
		// Size the default table for the capacity ceiling, not the initial
		// pool: a Reconfigure up to MaxDelegates must not find fewer virtual
		// delegates than contexts. An EXPLICIT VirtualDelegates below the
		// ceiling stays as given (clamped only to the initial pool) — it is
		// a deliberate bound, and Reconfigure targets above it are rejected
		// with a descriptive error instead of being silently clamped.
		c.VirtualDelegates = 4 * (c.MaxDelegates + c.ProgramShare)
	}
	if c.VirtualDelegates < c.Delegates+c.ProgramShare {
		c.VirtualDelegates = c.Delegates + c.ProgramShare
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = spsc.DefaultCapacity
	}
	if c.StealThreshold <= 0 {
		// Adaptive default: scale with the queue depth the backlog is
		// measured against (QueueCapacity was defaulted above), then let
		// the in-epoch imbalance EWMA move it inside the clamp band.
		c.StealThreshold = c.QueueCapacity / 4
		if c.StealThreshold < MinStealThreshold {
			c.StealThreshold = MinStealThreshold
		}
		if c.StealThreshold > MaxStealThreshold {
			c.StealThreshold = MaxStealThreshold
		}
		c.AdaptiveSteal = true
	}
	if c.FaultRecordBound <= 0 {
		c.FaultRecordBound = DefaultFaultRecordBound
	}
	if c.Watchdog == 0 && c.Checked {
		c.Watchdog = DefaultWatchdog
	}
	if c.Watchdog < 0 {
		c.Watchdog = 0 // explicit off
	}
	return c
}

// validate rejects configuration combinations the engine cannot honor.
// Sequential debug mode ignores scheduling options instead of rejecting
// them, so a program can flip one switch to debug any configuration.
func (c Config) validate() {
	if c.Sequential {
		return
	}
	if c.Stealing && c.Policy != LeastLoaded {
		panic("prometheus: Stealing requires the LeastLoaded policy")
	}
	if c.Recursive {
		if c.ProgramShare != 0 {
			panic("prometheus: ProgramShare is incompatible with Recursive (sets must be delegate-owned)")
		}
		// Without stealing, recursive placement is the paper's static
		// assignment; with stealing, placement is dynamic (static seed +
		// occupancy-aware whole-set handoff), which is what LeastLoaded
		// names. Any other pairing would misdescribe what runs.
		if !c.Stealing && c.Policy != StaticMod {
			panic("prometheus: Recursive requires the StaticMod policy (or LeastLoaded with Stealing)")
		}
	}
}

// RuntimeConfig is the runtime-mutable slice of the configuration — the
// knobs Reconfigure may change at an epoch boundary, as opposed to the
// immutable-per-run Config the pool structures were built from. It is held
// behind an atomic pointer with Get/Store semantics: Reconfigure validates
// and stores the desired state from any goroutine, and the program context
// applies it at the next BeginIsolation (the engine's only quiescent
// point). The zero value of each field means "keep the current setting".
type RuntimeConfig struct {
	// Delegates is the desired active pool size, in [1, MaxDelegates].
	// 0 keeps the current size.
	Delegates int

	// StealThreshold rebases the victim-backlog threshold at which the
	// occupancy-aware rebalancer engages. Under AdaptiveSteal this moves
	// the base the in-epoch EWMA scales from; with an explicit threshold
	// it replaces it outright. 0 keeps the current base.
	StealThreshold int
}

// validateReconfig rejects a RuntimeConfig the pool cannot honor,
// descriptively: the reconfiguration surface is driven by operators (admin
// endpoints, autoscalers), so a bad target must come back as an error at
// the call site, not a panic deep in placement at the next epoch.
func (c Config) validateReconfig(rc RuntimeConfig) error {
	if c.Sequential {
		return fmt.Errorf("prometheus: Reconfigure: Sequential mode has no delegate pool to resize")
	}
	if rc.Delegates < 0 {
		return fmt.Errorf("prometheus: Reconfigure: %d delegates is not a valid pool size", rc.Delegates)
	}
	if rc.Delegates > c.MaxDelegates {
		return fmt.Errorf(
			"prometheus: Reconfigure: %d delegates exceeds the pool capacity MaxDelegates=%d (pool structures are pre-allocated at New; raise WithMaxDelegates)",
			rc.Delegates, c.MaxDelegates)
	}
	if rc.Delegates > 0 && rc.Delegates+c.ProgramShare > c.VirtualDelegates {
		return fmt.Errorf(
			"prometheus: Reconfigure: %d delegates (+%d program share) exceeds VirtualDelegates=%d — the static assignment table cannot spread fewer virtual delegates than contexts; raise WithVirtualDelegates",
			rc.Delegates, c.ProgramShare, c.VirtualDelegates)
	}
	if rc.StealThreshold < 0 {
		return fmt.Errorf("prometheus: Reconfigure: negative StealThreshold %d", rc.StealThreshold)
	}
	return nil
}
