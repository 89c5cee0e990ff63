// Package prometheus implements the serialization-sets parallel execution
// model of Allen, Sridharan & Sohi, "Serialization Sets: A Dynamic
// Dependence-Based Parallel Execution Model" (PPoPP 2009), as a Go library.
//
// # Model
//
// A program using serialization sets is written as an ordinary sequential
// program. Execution is divided into aggregation epochs (plain sequential
// execution, the default) and isolation epochs (opened with
// Runtime.BeginIsolation, closed with Runtime.EndIsolation). During an
// isolation epoch the program partitions its data into disjoint domains:
//
//   - read-only data (ReadOnly[T]) may be read by any operation;
//   - privately-writable data (Writable[T]) may be read and written only by
//     its current owner;
//   - reducible data (Reducible[T]) accumulates into per-context views that
//     are folded together on first use in the following aggregation epoch.
//
// Potentially independent operations on writable data are delegated
// (Writable.Delegate). A serializer — a small piece of code run at the
// delegation point — maps each operation to a serialization set.
// Operations in the same set execute in program order on a single delegate
// context; operations in different sets may execute concurrently. Because
// every operation has a place in a single logical order, parallel execution
// is deterministic: there are no data races, and deadlock, livelock and
// priority inversion cannot occur.
//
// # Correspondence with the paper's C++ API (Table 1)
//
//	initialize()                 -> Init(opts...)
//	terminate()                  -> Runtime.Terminate()
//	sleep()                      -> Runtime.Sleep()
//	begin_isolation()            -> Runtime.BeginIsolation()
//	end_isolation()              -> Runtime.EndIsolation()
//	read_only<T>::call           -> ReadOnly[T].Call / Get
//	reducible<T>::call           -> Reducible[T].Update / View / Result
//	writable<T,S>::call          -> Writable[T].Call (private) / CallRO (read-only)
//	writable<T,S>::delegate      -> Writable[T].Delegate (serializer S)
//	writable<T,S>::delegate(ss)  -> Writable[T].DelegateTo(set, ...) (external serializer)
//	writable<T,S>::doall         -> DoAll(rt, objs, fn)
//
// The paper's predefined serializers map to Sequence (instance number),
// Object (address-like scrambled identity) and Null (external serializer
// supplied at the delegation site); internal serializers are arbitrary
// functions of the wrapped object (UseSerializer / NewWritableSer).
//
// Delegated methods must not return values (restructure to store results in
// the object and read them after synchronization), mirroring the paper's
// void-return restriction. In Go the delegated operation is a closure
// receiving (*Ctx, *T); the Ctx identifies the executing context and is how
// reducible views are addressed.
//
// # Debugging
//
// Sequential() builds a runtime in the paper's debug mode: every delegation
// runs inline in the program goroutine, in program order, while serializers
// and all dynamic checks still execute. Checked() enables the dynamic error
// detection of §3.3: serializer-consistency tagging and the
// read-only/private state machine, which panic with *Error on violation.
//
// # Performance
//
// The whole bet of the model is that delegation overhead is small enough
// for fine-grained operations to win (paper §4–5), so the hot path — a
// steady-state Delegate with Checked and Trace off — performs zero heap
// allocations and O(1) work:
//
//   - Invocation records travel by value through bounded SPSC rings of
//     sequence-stamped slots (internal/spsc, after FastForward, Giacomoni
//     et al. PPoPP 2008): no per-operation allocation, no GC pressure, and
//     producer and consumer never touch each other's cursor in steady
//     state.
//
//   - Wrappers dispatch through a static per-type trampoline plus two
//     payload words (the wrapper pointer and the callback's funcval
//     pointer) instead of constructing closures; the callback you pass to
//     Delegate is invoked on the executing context without any per-call
//     closure allocation. Alloc-regression tests (alloc_test.go) pin this
//     at exactly 0 allocs/op.
//
//   - Scheduling queries are O(1): each ring publishes padded monotonic
//     pushed/popped counters, so the LeastLoaded policy's queue-depth scan
//     costs one load per delegate rather than a walk over every slot.
//
//   - The program context batches runs of consecutive delegations bound
//     for the same busy delegate (WithDelegateBatch, default 8) and
//     delivers them with a single consumer wake-up. Operations are never
//     buffered while the target delegate has no backlog, and the buffer is
//     flushed when the delegate drains, on every target switch, when the
//     batch fills, and at every synchronization point — a buffered
//     operation waits at most until the program context's next delegation
//     or runtime call.
//
//   - Delegates consume in batches too: each wake pops a run of ring slots
//     (up to 64) and executes them back to back, publishing consumer
//     progress and the producer wake-up once per run rather than once per
//     operation. A backlogged delegate therefore drains at memcpy-plus-call
//     speed, which also keeps the producer out of its queue-full slow path.
//
// # Load balancing
//
// The LeastLoaded policy assigns a serialization set to the delegate with
// the shortest queue at the set's first delegation of the epoch, and the
// set then stays sticky to that delegate — per-set program order depends on
// it. When dependence chains have very uneven lengths, that one-shot choice
// can strand most of an epoch's work on one delegate while the others idle.
// WithStealing adds an occupancy-aware rebalancer: when a set's owner has
// WithStealThreshold or more outstanding operations and the set itself is
// quiescent (every operation previously delegated to it has finished
// executing — a safe handoff boundary), the next delegation hands the whole
// set to the least-occupied delegate, provided that delegate is idle or at
// most a quarter as loaded as the victim.
//
// Whole sets — never individual invocations — are the steal unit. Moving a
// single queued invocation would let two contexts interleave one set's
// operations and break the model's ordering guarantee; moving a whole set
// at a quiescent boundary preserves it by construction: everything
// delegated to the set before the handoff has completed on the old owner
// before anything after it is enqueued on the new one. Determinism is
// unchanged — only placement (which delegate runs a set), never order
// (which operations run and in what sequence per set), responds to load.
// The safety check is O(1), riding the same published counters as the
// scheduler: each delegate exposes an executed count, the program context
// tracks per-delegate sent counts, and a set is quiescent exactly when its
// newest operation's position is at or below its owner's executed count.
//
// # Recursive delegation
//
// Recursive() enables the extension the paper names as future work (§4):
// delegated operations may delegate further operations via Ctx.Delegate,
// which is how divide-and-conquer programs (quicksort, FPM, Barnes-Hut)
// are expressed without fork/join scaffolding. The recursive engine is
// built to the same performance standard as the flat path:
//
//   - Every delegate owns one inbound lane per producer context (program
//     plus every delegate). A lane is a bounded lap-stamped value ring —
//     the same slot machinery as the flat path's SPSC queue — backed by an
//     unbounded spill list that engages only on overflow. Steady state, a
//     recursive delegation writes its invocation record by value into ring
//     memory: zero allocations, no lane nodes, no closure. The spill tier
//     is what makes the bounded ring safe: a delegate may delegate to a
//     set it itself owns (or around a delegation cycle), so a delegate
//     producer never blocks — it spills — while the program context, which
//     no delegate can be waiting on, blocks on a full ring and gets
//     bounded-queue backpressure instead.
//
//   - The trampoline fast path extends end to end: Ctx.Delegate and the
//     root wrappers (Writable, ReadOnly, Reducible) all route through
//     static trampolines into the lanes (core.DelegateFromCall), so
//     recursive mode no longer pays a per-call closure.
//
//   - Each delegate keeps a pending-lane bitmask instead of polling all
//     lanes round-robin: a producer publishes work with one conditional
//     atomic OR plus a wake check, and an idle delegate inspects O(1)
//     words. Claimed lanes drain in batched runs (the consumer mirror of
//     the flat path's PopBatch drain), publishing the executed counter
//     once per run.
//
//   - Quiescence bookkeeping is contention-free: each producer context
//     counts what it enqueued in a padded single-writer counter and each
//     delegate counts what it executed; only the EndIsolation barrier
//     aggregates the two sides, repeating sync rounds until the sums agree
//     across a quiet round (executing an operation may enqueue more work,
//     so one drain round is never proof of completion).
//
// Per-set program order is preserved per producer — FIFO through ring and
// spill alike — and determinism requires each set to have one producer
// context per isolation epoch, which Checked() enforces with a sharded
// producer table. Stats reports RecursiveOps and Spills alongside the
// drain counters. Spill nodes are recycled through a per-lane freelist
// backed by a pool shared across a runtime's lanes, so sustained spilling
// (delegation cycles, self-delegation) settles at zero steady-state
// allocations too.
//
// # Recursive whole-set stealing: the multi-producer quiescent handoff
//
// Combining Recursive with WithPolicy(LeastLoaded)+WithStealing enables
// rebalancing in recursive mode, where the flat protocol's safety
// argument no longer suffices: a flat set has one producer (the program
// context), so "newest position <= owner's executed count" is one
// comparison — but a recursive set's operations arrive from many producer
// contexts, each through its own SPSC lane, and an executed counter that
// ignored one producer's lane could declare a set quiescent while that
// lane still carries its operations. Quiescence must therefore cover
// EVERY producer's sent counter: each producer counts the messages it
// pushes into each delegate's lane, the owner table records, per
// producer, the lane position of the set's newest operation, and each
// delegate publishes per-lane executed counters at its drain-run
// boundaries. A set may move only when every recorded position is covered
// by the owner's matching per-lane executed counter.
//
// The handoff itself takes no lock and needs no victim-side
// acknowledgment handshake: the victim's per-lane executed publishes at
// drain-run boundaries ARE the acknowledgment — lanes are FIFO, so an
// executed count at or past a position proves that operation and its
// whole lane prefix have finished — and the per-set epoch stamp (bumped
// once per handoff, after the new owner is published) counts migrations
// for tests and debugging; no protocol step depends on reading it.
// Since only the set's single producer routes
// operations to it, the migration is a single-writer update observed
// through those atomics. Recorded positions are relative to ONE owner's
// counters, so the migration rebases them: former producers' entries are
// zeroed (the quiescence proof at the handoff boundary makes them moot —
// left stale they would be compared against the new owner's unrelated
// counters) and the acting producer's entry is fenced at the thief's
// current lane depth before the new owner is published.
//
// Migrating a set also moves the PRODUCER ROLE of its operations: nested
// sets they delegate to start receiving through the thief's lanes, which
// is only safe once everything the set already fed them through the
// victim's lanes has executed. PR 4 enforced that with a global veto —
// every lane the victim feeds as a producer fully drained, any set's
// traffic — which was safe but conservative enough to leave a liveness
// hole. The condition is now precise, carried by a per-set outbound
// ledger: while one of a set's operations executes, the drain loop stamps
// that set as the delegate's producing set, and every nested delegation
// the operation issues records its lane position into the set's entry
// (outPos[target] = the newest position of the set's own traffic in the
// target's lane). A set may migrate exactly when its OWN recorded
// positions are covered by the targets' per-lane executed counters; other
// sets' in-flight lanes no longer block it. The ledger rides the existing
// machinery: one plain producing-set stamp per executed operation, one
// atomic store per nested delegation (against a one-slot entry cache, so
// runs of one set's operations resolve the entry once), zero allocations
// — the ledger is not built at all unless stealing is enabled, so the
// static recursive hot path is untouched. Cost budget: the stealing-off
// paths stay exactly at PR 3's 0 allocs/op gates, and the stealing-on
// delegation adds two atomic stores and a three-field cache check
// (alloc_test.go and cmd/benchgate hold both).
//
// Two placement rules keep the engine from manufacturing hazards the
// program didn't write: a set is never handed to its own producer's
// context (that would silently turn its operations into self-delegations
// the producer may be blocked waiting on), and when a producer handover
// nevertheless lands a set on its own producer's delegate — the producing
// set migrated onto the delegate where the nested set lives — the set is
// force-evacuated to the least-occupied peer under the same quiescence +
// outbound-coverage conditions an ordinary steal needs. The precision of
// the ledger is what makes the evacuation live: under the global veto an
// unrelated in-flight stream could veto it forever while the set's
// operations self-enqueued, and a program blocking mid-operation on its
// own nested delegations would livelock (the regression stress proves the
// hang under the legacy veto, which survives as an internal
// negative-control knob). When only the set's own coverage is missing,
// the producer waits for it on the spot — event-driven off the ledger,
// bounded, never on traffic only the victim itself could drain — because
// for a program about to block, that delegation is the engine's last
// scheduling decision. recRoute verifies the handover property per nested
// set; Checked mode turns a violation into a panic, and re-asserts ledger
// coverage immediately before every owner publish as a cross-check. The
// producer discipline sharpens accordingly: under stealing, a set must
// receive its delegations from the operations of a single producing set
// (or from the program context) per epoch — one producing SET, not merely
// one context — so that a migration of the producing set moves all of the
// nested set's delegations together.
//
// On top of the handoff protocol sit two placement heuristics: hot-set
// seeded placement — BeginIsolation ranks the closing epoch's sets by
// delegated-op count (near-free from the owner table) and pre-places the
// top few round-robin across delegates, instead of letting first-touch
// assignment pile them onto whichever delegate looked emptiest at the
// epoch's first instant — and an in-epoch adaptive steal policy, an EWMA
// of the max/min delegate-occupancy ratio sampled at drain-run boundaries
// (with a final sample as each delegate parks, so a spun-down pool's
// stale extremes do not freeze the signal) that pulls the
// capacity-derived threshold toward its clamp floor and relaxes the
// thief-eligibility ratio (4x at balance, clamped [2,8]) in skewed
// epochs, and keeps ownership sticky in balanced ones. Both reset to
// their configured base at every BeginIsolation — the adaptation is
// in-epoch by contract — and an explicit WithStealThreshold pins both.
// Stats reports Steals, Handoffs, ForcedEvacs, OutboundVetoes,
// OutboundTracked, ThresholdAdjusts, and HotSetsPlaced for all of it.
//
// BenchmarkDelegateOverhead, BenchmarkRecursiveOverhead, BenchmarkSPSC,
// BenchmarkLane, BenchmarkCoreDelegateSkewed and BenchmarkRecursiveSkewed
// measure these paths; Runtime.Stats reports delegation, batching,
// stealing, handoff, drain, recursive, spill, and per-phase time
// counters.
//
// # Fault containment
//
// A panic in a delegated operation does not kill the process and does not
// wedge a barrier. Both engines run invocations inside recover()-protected
// execution spans; a recovered panic is recorded (value plus the stack of
// the original failure site) and the faulted operation is counted as
// executed, so every ledger the scheduling protocols rest on — flat
// occupancy, recursive per-lane coverage, barrier quiescence sums, the
// whole-set handoff proofs of the two stealing sections above — keeps
// advancing and the delegate goroutine stays alive.
//
// Determinism is preserved by set poisoning. The faulting operation's
// serialization set is poisoned for the remainder of the isolation epoch:
// every subsequent delegation to it is dropped-but-counted, so the set
// executes exactly its program-order prefix up to the faulting operation
// and nothing after — the same prefix on every run, because per-set
// program order is the model's invariant. Poisoned sets are never stolen,
// force-evacuated, or hot-seeded into the next epoch; the poison is
// written before the faulted operation's counters are published, so any
// context that proves the set quiescent has already observed it. Dropped
// operations never run at all — a fault mid-set also deterministically
// truncates the nested delegations its dropped successors would have
// issued. Poisoning clears at the next BeginIsolation; fault records
// persist for the runtime's lifetime.
//
// Faults surface as values, not crashes: Runtime.Err aggregates every
// contained panic into one error (ErrPanic-kind *Error values wrapping
// *PanicError, which carries the set, context, epoch, recovered value,
// and original stack), Runtime.SetErr and the wrappers' Err methods
// scope the report to one set, and Runtime.Poisoned answers for the
// current epoch. Checked mode fails fast instead: a delegation to a
// poisoned set panics at the delegation site with the original stack.
// Stats reports Panics, PoisonedSets, and DroppedOps; tracing emits a
// TracePanic event per contained fault.
//
// One discipline falls on user code: an operation that spin-waits on the
// side effects of operations in OTHER sets can hang if those operations
// are dropped by poisoning — synchronize through the runtime (epoch
// barriers, SyncSet), which containment guarantees still close, rather
// than through ad-hoc waits on delegated effects. The barrier watchdog
// (Config.Watchdog; on by default under Checked) turns any such hang —
// or an engine liveness bug — into a panic with a dump of per-delegate
// queue depths and ledger positions after a configurable no-progress
// bound. The chaos-injection harness (internal/chaos) drives all of this
// under test: deterministic and seeded-probabilistic panics injected
// across every engine mode, asserting survival, byte-identical poisoning
// points, and untouched sibling sets.
//
// The fault-free cost is one nil pointer load on the delegation path and
// one per drain run — all poison state is allocated lazily on the first
// contained panic, and the alloc gates pin the armed hot path at 0
// allocs/op.
//
// Fault records are retained in a bounded ring (WithFaultRecordBound,
// default 1024): a runtime that serves for weeks must not let every
// contained panic pin its captured stack forever. Evicted records are
// counted in Stats.DroppedFaults; the Panics counter and the poisoning
// discipline are unaffected, and Err/SetErr describe the most recent
// faults. SetErr is indexed per set — O(faults on that set) — so a caller
// can afford it on every failed operation.
//
// # Serving tier
//
// internal/serve and cmd/ssserve put the model in front of real traffic:
// serialization sets as a session-affinity request router. Each request's
// key (user id, session, tenant) hashes to a serialization set via
// StringSet, and the requests of one set run one at a time in the order
// the router delivered them — per-key causal order, no per-session locks —
// while requests for different keys run concurrently. One bad request
// maps to one failed session: a panicking handler poisons only its key
// for the epoch (those requests fail fast, 500 with the fault attached)
// while every other key keeps serving.
//
// The tier keeps the model's ordering rule but not its delegate pool. A
// serving request spends most of its life blocked — on an upstream, a
// disk, a deliberately slow handler — and a request that blocks on a
// delegate blocks every set queued behind it, while the epoch barrier
// waits for it before any key is delivered again. So each request runs on
// its own HTTP handler goroutine, and the router goroutine is only the
// per-key sequencer: it links each job onto its session's turn chain (the
// job waits for the completion signal of the key's newest granted
// attempt, and its own completion becomes the next link) and grants the
// job back to its goroutine, which waits its turn, runs the backend, and
// releases the turn. A slow key delays only its own later requests — the
// set blocked on I/O parks the set, not a delegate. Faults are recovered
// on the request goroutine and recorded, value and stack, in the tier's
// per-epoch poison table before the turn is released, so every request
// chained behind the fault is dropped with it.
//
// Rotation is the serving repair loop, and it waits for nothing: it swaps
// in an empty poison table so faulted keys heal, the slow-key watchdog
// heals, and idle rate-limit buckets are evicted. Admission control
// (inflight budget, bounded queue) and per-key token buckets repel
// overload on the handler goroutines before the router is touched;
// graceful drain stops admission and serves everything accepted.
// Histogram (fixed-bucket, atomic, allocation-free Observe) carries the
// per-set latency and queue-depth metrics. The serving stress tests assert
// per-key ordering under skewed concurrent load, drain completeness (no
// accepted request unanswered), poisoned-session isolation at the HTTP
// surface, and that a blocked handler holds up neither other keys nor
// rotation.
//
// Between the router and the work it runs sits the robustness layer. A
// pluggable Backend abstraction executes requests — in-process handlers,
// HTTP upstream proxies, or a rotation Pool of either in which every
// member is health-gated by its own circuit breaker (consecutive
// failures open it, a cooldown later exactly one half-open probe decides
// reclose-or-reopen). Per-request deadlines are fixed once at admission
// and enforced at every seam where the tier holds the request: on
// delivery at the router, while the request waits for its key's turn,
// and inside the backend via context deadline — so an expired request
// always resolves to a definitive 504 and never parks a connection.
// Idempotent requests that hit a backend failure retry with capped,
// deterministically jittered exponential backoff, relinked by the router
// at the key's chain tail so attempts stay serialized with the key's
// other requests; and a slow-key watchdog degrades a persistently slow
// key to 503 sheds for the remainder of the epoch (healed at rotation,
// the same discipline as poison). The
// adversarial load harness (internal/loadgen, cmd/ssload) closes the
// loop by driving a live server with skewed deterministic traffic
// against chaos-injected backends (internal/chaos latency spikes,
// seeded errors, flap windows) and asserting the contract from the
// client side: per-key order across the fleet, bounded healthy p99, an
// error budget, breaker open-and-recover observed on /metrics, zero
// hung requests, and drain with nothing accepted left unanswered.
//
// # Durable sessions
//
// The serving tier's persistence layer (internal/durable, wired in
// internal/serve) needs a consistent cut of all session state at every
// rotation, and must take it without waiting for a running backend. Each
// executed request therefore encodes its session's post-state and, under
// a short read lock, appends those bytes to the journal and stores them on
// its session — before its response is released. The rotation takes the
// write lock, swaps in the next generation's journal, and collects the
// stored records: per-key turn order means each record holds every effect
// of its key's acknowledged requests up to that one, and the lock means
// every record in the closing journal is also in the snapshot being
// written. A write-behind snapshot writer commits the capture
// (checksummed records, write-temp-sync-rename commit, generational GC);
// the fsync policy (per-request, per-rotation, or never) buys the
// operator an explicit acked-loss bound under kill -9. Boot recovery
// walks back to the newest valid snapshot, replays journal generations on
// top (monotonic by sequence, so overlap is harmless), truncates a torn
// tail at the first bad frame, and commits a fresh boot snapshot before
// admission. Failures degrade rather than wedge: a failed commit or
// append is counted and serving continues on the previous recovery point.
// The crash-restart drill (ssload -recovery) proves the bounds against
// real processes: SIGKILL mid-traffic, restart on the same state dir, and
// per-key assertions that no acknowledged sequence regressed past the
// policy's floor.
//
// # Elastic runtime
//
// The delegate pool can be resized while the runtime is live. The design
// follows directly from the epoch discipline: an isolation-epoch boundary
// is the only point in this model where resizing is safe, because it is
// the only point where anything global is known. Between boundaries,
// operations for a set may be in flight in a delegate's queue, a steal
// handshake may be mid-transfer, and the recursive engine's per-producer
// lanes may hold unacknowledged sends — moving a set or retiring a
// delegate in that state would either reorder a set's operations
// (breaking the one invariant the model promises) or strand them. At the
// boundary, the barrier has proven every queue drained and every
// delegation ledger balanced, so set-to-delegate placement is pure data:
// it can be rewritten wholesale, exactly as the epoch machinery already
// rewrites it for adaptive thresholds and hot-set seeding.
//
// Mechanically, [Runtime.Resize] and [Runtime.Reconfigure] only record a
// desired [RuntimeConfig]; the next BeginIsolation applies it. Capacity
// and occupancy are split: every delegate structure (queues, lane
// matrices, counters) is pre-allocated for WithMaxDelegates at New, and
// resizing only moves the active prefix — so context numbering, reducible
// views, and trace buffers stay valid across any resize, and the hot path
// pays nothing (the steal threshold and active count are single atomic
// loads that exist anyway). Scale-up spawns goroutines for the new
// prefix, rebuilds the placement tables, and re-seeds hot sets. Scale-down
// must also evacuate: every set owned by a closing delegate is reassigned
// into the surviving prefix before the delegate parks, because a set left
// on a retired delegate would silently stop executing — its operations
// would queue forever on a goroutine that exited. The evacuation argument
// is the same quiescence argument as the steal handshake's, but simpler:
// at the boundary the closing delegate's queue is provably empty and its
// lanes balanced, so reassignment is a table write with no in-flight
// operations to race. Checked mode asserts exactly this — a parked
// delegate with a non-empty queue or an unbalanced lane ledger panics
// ("traffic survived a retired delegate"). Parked delegates keep their
// structures (counters frozen, so all-capacity ledger sums still
// balance) and are respawned on the next scale-up, seeding their
// execution counters from the frozen values.
//
// The resize determinism tests pin the strongest form of the safety
// claim: a run whose pool is resized up and down mid-stream produces
// byte-identical per-set operation logs to a fixed-size run.
package prometheus
