package core

import "time"

// Phase identifies which epoch type the program context is currently in.
// Reduction is accounted as its own phase even though it occurs inside an
// aggregation epoch, matching the breakdown of the paper's Figure 5a.
type Phase int

const (
	PhaseAggregation Phase = iota
	PhaseIsolation
	PhaseReduction
)

func (p Phase) String() string {
	switch p {
	case PhaseAggregation:
		return "aggregation"
	case PhaseIsolation:
		return "isolation"
	case PhaseReduction:
		return "reduction"
	default:
		return "unknown"
	}
}

// Stats accumulates runtime counters and the per-phase wall-clock breakdown
// used to regenerate Figure 5a. Most fields are maintained by the program
// context; the drain, recursive, spill, handoff, and threshold counters are
// aggregated from per-delegate (and per-producer, and per-lane) atomics
// when a snapshot is taken, so a Stats() call may observe work mid-flight.
type Stats struct {
	Delegations uint64 // operations sent to delegate contexts
	InlineExecs uint64 // operations executed inline in the program context
	Syncs       uint64 // ownership reclaims (synchronization objects)
	Barriers    uint64 // full-runtime barriers (EndIsolation, Sleep)
	Epochs      uint64 // isolation epochs begun
	// Deprecated: always 0; delegations are not buffered.
	BatchFlushes uint64
	// Deprecated: always 0; delegations are not buffered.
	BatchedOps   uint64
	Steals       uint64 // serialization sets handed off by the occupancy-aware rebalancer
	Handoffs     uint64 // whole-set handoffs (the multi-producer quiescent protocol; equal to Steals)
	ForcedEvacs  uint64 // handoffs forced off a set's own producer's delegate (self-delegation hazard; a subset of Handoffs)
	DrainBatches uint64 // delegate-side batched drains (PopBatch runs executed)
	DrainedOps   uint64 // invocations delivered through batched drains
	RecursiveOps uint64 // method invocations enqueued through lanes by every producer (program delegations, nested delegations, pool tasks)
	Spills       uint64 // lane ring overflows absorbed by spill lists

	ThresholdAdjusts uint64 // in-epoch adaptive StealThreshold changes (imbalance-EWMA driven)
	HotSetsPlaced    uint64 // hot sets pre-placed round-robin at BeginIsolation from prior-epoch op counts

	// Elastic-runtime counters (program context, written at the epoch
	// boundary that applies a reconfiguration). Resizes counts applied
	// pool-size changes; ResizeEvacuatedSets counts owner-table entries
	// that were living on a retiring delegate when a scale-down evacuated
	// them back to the surviving pool.
	Resizes             uint64
	ResizeEvacuatedSets uint64

	// Per-set outbound-ledger counters (stealing under recursion). OutboundVetoes
	// counts migration attempts blocked because the candidate set's own
	// recorded outbound traffic was not yet covered by the target lanes'
	// executed counters; OutboundTracked counts ledger writes (one per
	// nested delegation issued by a set's operation under stealing) — the
	// ledger's write volume, for sizing its hot-path cost.
	OutboundVetoes  uint64
	OutboundTracked uint64

	// Fault-containment counters (internal/core/fault.go). Panics counts
	// contained delegated-operation panics; PoisonedSets counts sets ever
	// poisoned by one (poisoning is epoch-scoped, the counter cumulative);
	// DroppedOps counts delegations dropped because their set was poisoned
	// — the deterministic skip of everything after a faulting position.
	// DroppedFaults counts fault RECORDS evicted by the bounded retention
	// ring (Config.FaultRecordBound) — nonzero means Err/SetErr describe
	// only the most recent faults, while Panics still counts them all.
	Panics        uint64
	PoisonedSets  uint64
	DroppedOps    uint64
	DroppedFaults uint64

	Aggregation time.Duration
	Isolation   time.Duration
	Reduction   time.Duration
}

// Total returns the wall-clock total across the three phases.
func (s Stats) Total() time.Duration {
	return s.Aggregation + s.Isolation + s.Reduction
}

// phaseClock tracks the current phase and charges elapsed time to it on each
// transition.
type phaseClock struct {
	phase Phase
	start time.Time
}

func newPhaseClock() phaseClock {
	return phaseClock{phase: PhaseAggregation, start: time.Now()}
}

// switchTo charges time elapsed in the current phase to st and enters p.
func (c *phaseClock) switchTo(p Phase, st *Stats) {
	now := time.Now()
	d := now.Sub(c.start)
	switch c.phase {
	case PhaseAggregation:
		st.Aggregation += d
	case PhaseIsolation:
		st.Isolation += d
	case PhaseReduction:
		st.Reduction += d
	}
	c.phase = p
	c.start = now
}
