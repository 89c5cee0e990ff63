package prometheus

import (
	"errors"
	"sort"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
)

// Stats re-exports the runtime counters and the per-phase time breakdown
// (used to regenerate the paper's Figure 5a).
type Stats = core.Stats

// Phase identifies an epoch type in Stats.
type Phase = core.Phase

// Phases, re-exported from the engine.
const (
	PhaseAggregation = core.PhaseAggregation
	PhaseIsolation   = core.PhaseIsolation
	PhaseReduction   = core.PhaseReduction
)

// SchedPolicy selects the delegate-assignment policy.
type SchedPolicy = core.SchedPolicy

// Assignment policies: StaticMod is the paper's (§4); LeastLoaded is the
// dynamic-scheduling extension the paper names as future work.
const (
	StaticMod   = core.StaticMod
	LeastLoaded = core.LeastLoaded
)

// Ctx identifies the execution context running a delegated operation. The
// program context has ID 0; delegate contexts are numbered from 1. Reducible
// views are addressed by Ctx. A Ctx must not be retained beyond the
// delegated call it was passed to.
type Ctx struct {
	rt *Runtime
	id int
}

// ID returns the context number in [0, Runtime.NumContexts()).
func (c *Ctx) ID() int { return c.id }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// ctxTramp is the Ctx.Delegate trampoline: one static function shared by
// every recursive delegation, so issuing one builds no per-call closure.
// p1 is the Runtime, p2 the user callback's funcval pointer.
func ctxTramp(ctx int, p1, p2 unsafe.Pointer) {
	rt := (*Runtime)(p1)
	fn := ptrFunc[func(*Ctx)](p2)
	fn(&rt.ctxs[ctx])
}

// Delegate assigns fn to the given serialization set from inside a
// delegated operation (recursive delegation; requires the Recursive
// option). Per-set ordering follows the delegating context's program
// order; a set must not receive delegations from two different contexts in
// one isolation epoch. Steady state this is the same zero-allocation
// trampoline fast path the root wrappers use: the invocation record is
// written by value into the producer's ring lane on the set's owner.
func (c *Ctx) Delegate(set uint64, fn func(c *Ctx)) {
	rt := c.rt
	rt.core.DelegateFromCall(c.id, set, ctxTramp, unsafe.Pointer(rt), funcPtr(fn))
}

// Option configures Init.
type Option func(*core.Config)

// WithDelegates sets the number of delegate contexts (paper: delegate
// threads; default GOMAXPROCS-1).
func WithDelegates(n int) Option { return func(c *core.Config) { c.Delegates = n } }

// WithMaxDelegates sets the pool capacity ceiling for Resize/Reconfigure
// (default: the initial delegate count, i.e. a fixed pool). All pool
// structures are pre-allocated to this capacity at Init so a live resize
// never reallocates anything a running delegate indexes into: one ring per
// delegate for the program context's lane. Under Recursive a delegate's
// lane into each delegate it delegates to is built on first use.
func WithMaxDelegates(n int) Option { return func(c *core.Config) { c.MaxDelegates = n } }

// WithVirtualDelegates sets the size of the static assignment table (§4).
func WithVirtualDelegates(n int) Option { return func(c *core.Config) { c.VirtualDelegates = n } }

// WithProgramShare assigns n virtual delegates to the program context itself
// (the paper's assignment ratio); their operations execute inline.
func WithProgramShare(n int) Option { return func(c *core.Config) { c.ProgramShare = n } }

// WithQueueCapacity sets the ring capacity of every lane: the program
// context's queue to each delegate (a full ring makes the program wait)
// and, under Recursive, each delegate-to-delegate lane (overflow spills to
// an unbounded list, so small rings stay deadlock-free).
func WithQueueCapacity(n int) Option { return func(c *core.Config) { c.QueueCapacity = n } }

// WithDelegateBatch has no effect: every delegation is written straight
// into its delegate's lane.
//
// Deprecated: kept so existing callers compile.
func WithDelegateBatch(n int) Option { return func(c *core.Config) { c.DelegateBatch = n } }

// WithPolicy selects the delegate-assignment policy.
func WithPolicy(p SchedPolicy) Option { return func(c *core.Config) { c.Policy = p } }

// WithStealing enables the occupancy-aware work-stealing extension to the
// LeastLoaded policy. When a set's sticky owner has at least StealThreshold
// outstanding operations and every operation previously delegated to that
// set has finished executing (the set is quiescent — a safe handoff
// boundary), the next delegation hands the whole set to the delegate with
// the smallest occupancy, provided it is idle or at most a quarter as loaded
// as the victim. Sets — never individual invocations — are the steal unit,
// so operations within a set still execute in program order and the model's
// determinism guarantee is unchanged; only the placement of whole sets
// responds to load. Requires WithPolicy(LeastLoaded). Placement seeds from
// the static assignment table, and the previous epoch's hottest sets are
// pre-placed round-robin at BeginIsolation.
//
// With Recursive the same contract holds across many producer contexts: a set migrates only when
// every producer's newest operation on it has executed on the owner AND
// every nested delegation the set's own operations issued has drained —
// tracked precisely per set by an outbound ledger, so other sets'
// in-flight traffic never blocks a migration (the multi-producer
// quiescent handoff; see doc.go). The steal threshold and
// thief-eligibility ratio adapt within each epoch to the observed
// delegate-occupancy imbalance unless pinned with WithStealThreshold.
func WithStealing() Option { return func(c *core.Config) { c.Stealing = true } }

// WithStealThreshold pins the victim backlog (outstanding operations) at
// which stealing engages. When unset the threshold starts from the queue
// capacity (QueueCapacity/4, clamped to [core.MinStealThreshold,
// core.MaxStealThreshold]) and then adapts within each epoch: delegates
// feed the max/min occupancy ratio they observe at drain-run boundaries
// into an EWMA, and a skewed epoch pulls the effective threshold toward
// the clamp floor — and relaxes the thief-eligibility ratio (4x at
// balance, clamped [2,8]) — while a balanced one keeps ownership sticky;
// both reset to their base at every BeginIsolation. An explicit threshold
// pins the threshold AND the ratio for the run. Lower explicit values
// rebalance skew sooner; higher ones keep ownership stickier under
// transient pipelining. Ignored without WithStealing.
func WithStealThreshold(n int) Option { return func(c *core.Config) { c.StealThreshold = n } }

// WithFaultRecordBound caps how many contained-panic records the runtime
// retains for Err/SetErr (default core.DefaultFaultRecordBound). Once the
// bound is reached the oldest record is evicted and Stats.DroppedFaults
// counts it; the Panics counter and set poisoning are unaffected. A
// long-lived serving runtime needs the bound — without it every contained
// panic pins its captured stack forever.
func WithFaultRecordBound(n int) Option { return func(c *core.Config) { c.FaultRecordBound = n } }

// Sequential builds the runtime in the paper's debug mode (§3.3): all
// delegations execute inline, in program order, with checks still active.
func Sequential() Option { return func(c *core.Config) { c.Sequential = true } }

// Checked enables dynamic error detection (§3.3). The paper disables these
// checks for performance measurements; so do the benchmarks here.
func Checked() Option { return func(c *core.Config) { c.Checked = true } }

// WithTrace enables execution tracing; retrieve events with
// Runtime.TraceEvents and analyze them with the trace package.
func WithTrace() Option { return func(c *core.Config) { c.Trace = true } }

// Recursive permits recursive delegation, the extension the paper names as
// future work (§4): delegated operations may delegate further operations
// via Ctx.Delegate. It does not change the engine or the cost of plain
// delegation; it opens each delegate's own lanes as producers. A
// serialization set must receive delegations from only one context per
// isolation epoch for the execution to stay deterministic (Checked()
// enforces it; under stealing, the engine may hand that producer role over
// at quiescent points — the guarantee is unchanged). Incompatible with
// WithProgramShare. Placement uses the paper's static policy by default;
// combine with WithPolicy(LeastLoaded) and WithStealing for the
// occupancy-aware whole-set rebalancer.
func Recursive() Option { return func(c *core.Config) { c.Recursive = true } }

// Runtime is the serialization-sets runtime. Create one with Init; the
// creating goroutine is the program context and is the only goroutine that
// may call Runtime methods. Delegated closures receive a *Ctx instead.
type Runtime struct {
	core     *core.Runtime
	ctxs     []Ctx // one per context id; handed to delegated closures
	instance atomic.Uint64
	checked  bool
}

// Init starts a runtime (paper: initialize()).
func Init(opts ...Option) *Runtime {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	rt := &Runtime{checked: cfg.Checked}
	rt.core = core.New(cfg)
	rt.ctxs = make([]Ctx, rt.core.NumContexts())
	for i := range rt.ctxs {
		rt.ctxs[i] = Ctx{rt: rt, id: i}
	}
	return rt
}

// Terminate shuts down the runtime (paper: terminate()), draining
// outstanding delegated work first.
func (rt *Runtime) Terminate() { rt.core.Terminate() }

// Sleep quiesces delegate contexts during a long aggregation epoch
// (paper: sleep()).
func (rt *Runtime) Sleep() { rt.core.Sleep() }

// BeginIsolation opens an isolation epoch (paper: begin_isolation()).
func (rt *Runtime) BeginIsolation() { rt.core.BeginIsolation() }

// EndIsolation closes the isolation epoch, synchronizing with all delegate
// contexts (paper: end_isolation()).
func (rt *Runtime) EndIsolation() { rt.core.EndIsolation() }

// InIsolation reports whether an isolation epoch is open.
func (rt *Runtime) InIsolation() bool { return rt.core.InIsolation() }

// NumContexts returns the number of execution contexts (1 program +
// MaxDelegates). It is the pool CAPACITY plus one — immutable for the
// runtime's lifetime, so per-context state (reducible views, trace
// buffers) sized from it stays valid across resizes; use ActiveDelegates
// for the live pool size.
func (rt *Runtime) NumContexts() int { return rt.core.NumContexts() }

// NumDelegates returns the delegate pool CAPACITY (MaxDelegates); see
// ActiveDelegates for the current live count.
func (rt *Runtime) NumDelegates() int { return rt.core.NumContexts() - 1 }

// ActiveDelegates returns the number of delegates currently serving the
// pool. Safe from any goroutine.
func (rt *Runtime) ActiveDelegates() int { return rt.core.ActiveDelegates() }

// RuntimeConfig re-exports the runtime-mutable configuration accepted by
// Reconfigure. Zero fields keep their current setting.
type RuntimeConfig = core.RuntimeConfig

// Resize requests the delegate pool be resized to n at the next epoch
// boundary — BeginIsolation is the engine's quiescent point, where owner
// tables rebuild and hot sets re-place, so a resize there preserves per-set
// program order exactly (see doc.go, "Elastic runtime"). Validated
// immediately; safe from any goroutine; last request before the boundary
// wins.
func (rt *Runtime) Resize(n int) error { return rt.core.Resize(n) }

// Reconfigure records a runtime-mutable configuration change (pool size,
// steal-threshold base) to apply at the next epoch boundary. Safe from any
// goroutine.
func (rt *Runtime) Reconfigure(rc RuntimeConfig) error { return rt.core.Reconfigure(rc) }

// CurrentConfig returns the effective runtime-mutable configuration (a
// pending Reconfigure shows up only after the epoch boundary applies it).
// Safe from any goroutine.
func (rt *Runtime) CurrentConfig() RuntimeConfig { return rt.core.RuntimeConfig() }

// ProgramCtx returns the program context handle, for use with reducibles
// from the program context.
func (rt *Runtime) ProgramCtx() *Ctx { return &rt.ctxs[core.ProgramContext] }

// Stats returns a snapshot of runtime counters and phase times.
func (rt *Runtime) Stats() Stats { return rt.core.Stats() }

// TraceEvent re-exports the trace record type.
type TraceEvent = core.TraceEvent

// Trace-event kinds, re-exported.
const (
	TraceExec   = core.TraceExec
	TraceSync   = core.TraceSync
	TraceEpoch  = core.TraceEpoch
	TraceSteal  = core.TraceSteal
	TracePanic  = core.TracePanic
	TraceResize = core.TraceResize
)

// TraceEvents returns the merged trace (nil unless WithTrace was given).
// Program context, aggregation epoch only.
func (rt *Runtime) TraceEvents() []TraceEvent { return rt.core.TraceEvents() }

// Checked reports whether dynamic error detection is enabled.
func (rt *Runtime) Checked() bool { return rt.checked }

// NoSet is the serialization-set id reported in a PanicError when the
// faulted operation belonged to no set (a RunParallel pool task). It is
// reserved: user delegations may not use it.
const NoSet = core.NoSet

// Err reports every panic the runtime has contained so far, aggregated
// into one error (errors.Join of ErrPanic-kind *Error values, each
// wrapping a *PanicError with the recovered value and original stack), in
// (epoch, set) order. Nil when no delegated operation has faulted. A
// contained panic poisons the faulting operation's serialization set for
// the rest of its isolation epoch — the set executed exactly its prefix up
// to the fault, everything after was deterministically dropped — so Err is
// how a program that survived an epoch finds out it did not finish it. Only
// the most recent WithFaultRecordBound faults are retained; Stats.DroppedFaults
// counts evictions. Safe from any goroutine.
func (rt *Runtime) Err() error { return joinFaults(rt.core.Faults()) }

// SetErr reports the contained panics recorded against one serialization
// set, aggregated like Err. Nil when the set never faulted. O(faults on
// that set), and safe from any goroutine, so a server can call it from its
// handler goroutines to attach fault detail to error responses.
func (rt *Runtime) SetErr(set uint64) error { return joinFaults(rt.core.SetFaults(set)) }

// Poisoned reports whether the set is poisoned in the current isolation
// epoch (delegations to it are being dropped). Poisoning clears at the
// next BeginIsolation; fault records — and therefore Err/SetErr — do not.
// Lock-free and safe from any goroutine.
func (rt *Runtime) Poisoned(set uint64) bool { return rt.core.Poisoned(set) }

// PoisonedCount reports how many sets are poisoned in the current
// isolation epoch — the live degradation gauge (Stats.PoisonedSets is the
// cumulative ever-poisoned counter), which a server can report on a health
// endpoint so orchestrators can tell "draining" from "degraded". Lock-free
// and safe from any goroutine.
func (rt *Runtime) PoisonedCount() int { return rt.core.PoisonedCount() }

// QueueDepths appends each active delegate context's current backlog
// (operations routed to it that have not finished executing, the running
// one included) to dst and returns the extended slice, one entry per
// delegate. Safe from any goroutine and
// allocation-free when dst has capacity, so a metrics scrape can sample it
// every time.
func (rt *Runtime) QueueDepths(dst []uint64) []uint64 { return rt.core.QueueDepths(dst) }

// SchedDump renders the engine's scheduler ledgers — per-delegate backlogs
// and per-lane sent/executed counters — as a human-readable report, the same dump
// the barrier watchdog attaches to a wedge panic. A draining server logs it
// when its drain deadline expires to identify stragglers. Program context.
func (rt *Runtime) SchedDump() string { return rt.core.DumpSchedState() }

// joinFaults renders engine fault records as the public error surface.
// The records arrive in containment order, which concurrent faults on
// different delegates make nondeterministic; sorting by (epoch, set) gives
// the report a stable shape.
func joinFaults(faults []core.PanicFault) error {
	if len(faults) == 0 {
		return nil
	}
	sort.Slice(faults, func(i, j int) bool {
		if faults[i].Epoch != faults[j].Epoch {
			return faults[i].Epoch < faults[j].Epoch
		}
		return faults[i].Set < faults[j].Set
	})
	errs := make([]error, len(faults))
	for i, f := range faults {
		pe := &PanicError{Set: f.Set, Ctx: f.Ctx, Epoch: f.Epoch, Value: f.Value, Stack: f.Stack}
		errs[i] = &Error{Kind: ErrPanic, Msg: pe.Error(), Err: pe}
	}
	return errors.Join(errs...)
}

// Histogram is a fixed-bucket histogram over int64 samples with lock-free
// atomic counters — the serving tier's latency and queue-depth metric
// primitive. Observe is safe from any goroutine, zero-allocation, and O(
// buckets) with no locks or compare-and-swap loops, so it sits on the
// request hot path; readers (Quantile, Buckets, Count) take a per-bucket
// snapshot that may be slightly torn against concurrent writers — fine for
// monitoring, which is the only intended reader. The sample unit is the
// caller's choice (the serving tier records microseconds); bucket bounds
// are fixed at construction, which is what keeps the write path free of
// resizing coordination.
type Histogram struct {
	bounds []int64         // ascending upper bounds, one per counted bucket
	counts []atomic.Uint64 // len(bounds)+1: bounds buckets plus overflow
	sum    atomic.Int64
}

// NewHistogram builds a histogram with the given strictly-ascending bucket
// upper bounds (a sample v lands in the first bucket with v <= bound, or in
// the implicit overflow bucket). Panics on unsorted or empty bounds — the
// construction-time check that keeps Observe check-free.
func NewHistogram(bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		panic("prometheus: NewHistogram: no bucket bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("prometheus: NewHistogram: bucket bounds must be strictly ascending")
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample. Zero allocations, no locks; safe from any
// goroutine. The linear bucket scan beats binary search at monitoring
// bucket counts (~10–20): latencies cluster in the low buckets, so the
// scan usually ends within a cache line.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of samples observed.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds. Read-only: the slice is the
// histogram's own, shared to keep the metrics exposition path
// allocation-free.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Buckets appends the per-bucket sample counts (len(Bounds())+1 entries,
// the last being the overflow bucket) to dst and returns the extended
// slice. Allocation-free when dst has capacity.
func (h *Histogram) Buckets(dst []uint64) []uint64 {
	for i := range h.counts {
		dst = append(dst, h.counts[i].Load())
	}
	return dst
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket containing the target rank, the standard fixed-bucket
// estimate. Samples in the overflow bucket are attributed to the highest
// bound — the estimate saturates there rather than extrapolating. Returns
// 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Snapshot once so total and the walk agree with each other even while
	// writers race the read.
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(counts)-1 {
			if i >= len(h.bounds) {
				return float64(h.bounds[len(h.bounds)-1])
			}
			lo := 0.0
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			hi := float64(h.bounds[i])
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// nextInstance issues wrapper instance numbers (the sequence serializer's
// identity source).
func (rt *Runtime) nextInstance() uint64 { return rt.instance.Add(1) - 1 }
