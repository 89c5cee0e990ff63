package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Owner-table placement and whole-set work stealing — the occupancy-aware
// scheduling subsystem behind the LeastLoaded policy. Without Stealing the
// owner table only makes placement sticky: a set's first delegation of the
// epoch goes to the least-occupied delegate and stays there. With Stealing,
// sets may migrate. The paper's scalability argument rests on sets being
// free to move between delegates (per-set program order is the only
// invariant), but under recursion delegations arrive from MANY producer
// contexts, each through its own SPSC lane, so "the set is quiescent on its
// owner" is not one position against one executed counter. Without
// recursion the program context is the only producer and every rule below
// degenerates to that single comparison on lane 0.
//
// The multi-producer quiescent handoff:
//
//   - Each producer context p keeps a padded single-writer counter of the
//     messages it has pushed into each delegate's lane p (laneSent[d][p]),
//     and each delegate publishes, per lane, how many of that lane's
//     messages it has finished executing (recDelegate.laneExec[p], stored
//     at drain-run boundaries). Lanes are FIFO, so "executed count >=
//     position" proves everything at or before that position ran.
//
//   - The owner table's entry for a set records, per producer, the lane
//     position of the set's newest operation on the current owner
//     (recSetEntry.lastPos). A set is quiescent on its owner exactly when
//     EVERY producer's recorded position is covered by the owner's
//     executed counter for that producer's lane — the safe multi-producer
//     handoff boundary. In-flight work needs no lock and no explicit ack
//     from the victim: the victim's per-lane executed publishes at
//     drain-run boundaries ARE the ack; the per-set stamp below counts the
//     handoffs for tests and debugging.
//
//   - Only the set's producer (one context per set per isolation epoch —
//     the discipline Checked mode enforces) routes operations to it, so
//     the migration itself is a single-writer update: zero every former
//     producer's lastPos (positions are relative to the OLD owner's
//     counters, and the migration-time quiescence proof makes them moot),
//     conservatively fence the producer's own lastPos at the thief's
//     current lane position so the set cannot immediately migrate again
//     ahead of work already queued in the thief's lane, then store the
//     thief as owner and bump the per-set handoff stamp. Everything
//     delegated to the set before the handoff
//     has executed on the victim before the first operation after it is
//     enqueued on the thief, so per-set program order — and with it the
//     model's determinism — is preserved by construction; only placement
//     responds to load.
//
//   - Migrating a set also moves the PRODUCER ROLE its operations play:
//     operations of the migrated set that delegate further (nested sets)
//     start arriving through the thief's lanes instead of the victim's.
//     That handover is only safe if nothing THE MIGRATING SET'S OWN
//     operations pushed through the victim's lanes is still in flight —
//     the outbound-coverage condition, checked against a precise per-set
//     outbound ledger. While an operation of set S executes on S's owner
//     v, the drain loop stamps S as v's producing set
//     (recDelegate.prodSet); every nested delegation that operation
//     issues records its lane position into S's entry
//     (recSetEntry.outPos[d] = the laneSent[d][v] count of the newest
//     S-issued message in delegate d+1's lane v). S may migrate away from
//     v exactly when, for every target d, outPos[d] is covered by d's
//     laneExec[v]: lanes are FIFO, so coverage proves every nested
//     delegation S's operations ever issued from v has executed — the
//     nested sets have nothing of S's in flight, and delegations arriving
//     through the thief's lanes afterwards are fully ordered behind them.
//
//     Why per-set suffices where PR 4 demanded ALL of v's outbound lanes
//     drained: a nested set receives its delegations from the operations
//     of ONE producing set (or from the program context) — the sharpened
//     producer discipline below — so traffic that OTHER sets' operations
//     pushed through v's lanes targets nested sets S never feeds. Its
//     coverage is irrelevant to S's handover, and waiting on it is what
//     opened the self-delegation livelock the ledger closes: a set
//     force-evacuated off its own producer's delegate could be vetoed
//     forever by unrelated streams (Config.LegacyOutboundVeto restores
//     that veto as a negative control; the livelock regression stress
//     proves the hang under it).
//
//     The ledger write is attribution by execution context: only v runs
//     S's operations, only while one is executing, so outPos has a single
//     writer at any time, and it is frozen whenever S is quiescent on v —
//     every S operation has finished, and only S's producer (the context
//     performing the migration check) can start another. The migration
//     check therefore reads stable values: quiescence is checked first,
//     and the laneExec publishes that proved it are the release/acquire
//     edge that makes all prior outPos stores visible.
//
//     recRoute still double-checks the property per nested set: a
//     delegation that changes a set's recorded producer must find the set
//     quiescent, which Checked mode enforces with a panic. The ledger is
//     a snapshot, so it sharpens the program-side discipline rather than
//     replacing it: under stealing, a nested set must receive its
//     delegations from the operations of ONE producing set (or from the
//     program context) — not merely one context. Two parent sets on one
//     delegate feeding the same nested set satisfies the static
//     one-context rule, but migrating either parent would split the
//     nested set's delegations across two contexts with no mutual order,
//     which no ledger can prevent at migration time. recRoute's
//     quiescence check is exactly the runtime test of this rule, and its
//     panic names it.
//
//   - One placement is migrated regardless of load: a set owned by its own
//     producer's delegate (a producer handover can create this) is
//     force-evacuated, because every operation routed there would be a
//     self-delegation the producer may block on. The evacuation needs the
//     same quiescence + outbound-coverage conditions as an ordinary
//     steal; when only coverage is missing — and the uncovered lanes
//     target OTHER delegates, which drain independently — the producer
//     waits for coverage on the spot (bounded, event-driven off the
//     ledger: waitRecOutboundCoverage) instead of retrying on a future
//     delegation that a blocking program may never issue.
//
// Under stealing, placement seeds come from the static assignment table
// (the same route StaticMod uses), optionally overridden for the previous
// epoch's hottest sets by BeginIsolation's round-robin pre-placement
// (reseed), and migrate from there. Without stealing a set's first touch
// goes to the least-occupied delegate and never moves within the epoch.

// recSetEntry is the owner table's record of one serialization
// set. All fields are atomics: the set's single producer writes them, but
// the program context (stats, reseeding) and — under a violated producer
// discipline, which Checked mode turns into a panic — other contexts may
// observe them.
type recSetEntry struct {
	// owner is the context id of the delegate currently executing the set.
	owner atomic.Int32
	// producer is the context that most recently delegated to the set (-1
	// until the first delegation). A producer change is a handover: legal
	// only at a quiescent point of the set, because the new producer's lane
	// has no order against in-flight operations in the old producer's lane.
	// Handovers happen legitimately when the set that ISSUES these
	// delegations migrates — the outbound-drain condition in maybeMigrate
	// guarantees the quiescence this check then observes.
	producer atomic.Int32
	// stamp counts whole-set handoffs this epoch (the per-set epoch
	// stamp): bumped once per migration, after the new owner is published.
	// Nothing on the drain or delegation path depends on it today — the
	// protocol's ordering rests entirely on the laneSent/laneExec ledgers —
	// it is observability state: tests and debugging read it to tell that
	// (and how often) a set moved between two of their own reads.
	stamp atomic.Uint64
	// ops counts operations delegated to the set this epoch; BeginIsolation
	// ranks the previous epoch's sets by it to pre-place the hottest ones.
	ops atomic.Uint64
	// lastPos[p] is the lane position (producer p's laneSent count for the
	// owner's lane p) of the set's newest operation — the value the owner's
	// laneExec[p] must reach before the set may move.
	lastPos []atomic.Uint64
	// outPos[d] is the per-set outbound ledger: the lane position
	// (laneSent[d][owner] count) of the newest nested delegation THIS
	// SET'S operations pushed into delegate d+1's lane `owner`. Written by
	// the owner's drain goroutine while one of the set's operations
	// executes (noteOutbound), read by the set's producer at migration
	// checks, zeroed at migration (positions are relative to the old
	// owner's lanes, and the coverage proof at the handoff boundary makes
	// them moot — exactly the lastPos rebase argument). The set may leave
	// its owner v only when every outPos[d] is covered by delegate d+1's
	// laneExec[v].
	outPos []atomic.Uint64
	// poison mirrors the global poison table's entry for this set
	// (fault.go) — nil unless one of the set's operations panicked this
	// epoch, so the fault-free rebalancer pays one pointer load past the
	// streaming fast path and the hot-set ranking a nil compare. Written by
	// the faulting delegate (recordPanic) before it publishes the faulted
	// operation's counters, which is what makes the no-steal check
	// deterministic: any producer that proves the set quiescent has
	// observed those counters, and therefore this pointer.
	poison atomic.Pointer[PanicFault]
}

// recOwnerTable is the concurrent set->entry map behind the owner table, specialized to uint64 keys so the lookup every stealing
// delegation performs allocates nothing (a sync.Map would box every set id
// into an interface). Reads are lock-free: bucket heads are atomic
// pointers to immutable chain nodes, so a lookup is one scrambled-hash
// index plus a chain walk. Inserts — once per set per epoch — serialize on
// one mutex, re-check under it, and grow the bucket array by rehashing
// into fresh nodes (readers keep walking the old array; anything they miss
// sends them to the insert path, which re-checks).
type recOwnerTable struct {
	buckets atomic.Pointer[[]atomic.Pointer[recSetNode]]
	mu      sync.Mutex
	count   int
}

type recSetNode struct {
	set   uint64
	entry *recSetEntry
	next  *recSetNode // immutable after the node is published
}

// recOwnerBuckets is the initial bucket count (doubles when load factor
// passes 2 chained entries per bucket).
const recOwnerBuckets = 256

func newRecOwnerTable() *recOwnerTable {
	t := &recOwnerTable{}
	b := make([]atomic.Pointer[recSetNode], recOwnerBuckets)
	t.buckets.Store(&b)
	return t
}

// mixSet scrambles a set id into a bucket hash (SplitMix64 finalizer).
func mixSet(set uint64) uint64 {
	set += 0x9e3779b97f4a7c15
	set = (set ^ (set >> 30)) * 0xbf58476d1ce4e5b9
	set = (set ^ (set >> 27)) * 0x94d049bb133111eb
	return set ^ (set >> 31)
}

// lookup returns the set's entry, or nil. Lock- and allocation-free.
func (t *recOwnerTable) lookup(set uint64) *recSetEntry {
	b := *t.buckets.Load()
	for n := b[mixSet(set)&uint64(len(b)-1)].Load(); n != nil; n = n.next {
		if n.set == set {
			return n.entry
		}
	}
	return nil
}

// insert publishes entry for set unless another producer got there first,
// returning the entry that won.
func (t *recOwnerTable) insert(set uint64, entry *recSetEntry) *recSetEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.lookup(set); e != nil {
		return e // lost the publish race; adopt the winner
	}
	b := *t.buckets.Load()
	if t.count >= 2*len(b) {
		b = t.grow(b)
	}
	slot := &b[mixSet(set)&uint64(len(b)-1)]
	slot.Store(&recSetNode{set: set, entry: entry, next: slot.Load()})
	t.count++
	return entry
}

// grow doubles the bucket array, rehashing every chain into fresh nodes
// (old nodes stay intact for concurrent readers), and publishes it.
// Caller holds mu.
func (t *recOwnerTable) grow(old []atomic.Pointer[recSetNode]) []atomic.Pointer[recSetNode] {
	nb := make([]atomic.Pointer[recSetNode], 2*len(old))
	for i := range old {
		for n := old[i].Load(); n != nil; n = n.next {
			slot := &nb[mixSet(n.set)&uint64(len(nb)-1)]
			slot.Store(&recSetNode{set: n.set, entry: n.entry, next: slot.Load()})
		}
	}
	t.buckets.Store(&nb)
	return nb
}

// forEach visits every (set, entry) pair. Program context, between epochs.
func (t *recOwnerTable) forEach(fn func(set uint64, e *recSetEntry)) {
	b := *t.buckets.Load()
	for i := range b {
		for n := b[i].Load(); n != nil; n = n.next {
			fn(n.set, n.entry)
		}
	}
}

// recStealState carries the owner-table scheduling state; nil unless the
// policy is LeastLoaded.
type recStealState struct {
	// owners is the dynamic set->*recSetEntry table for the current epoch.
	// An atomic pointer so BeginIsolation can swap in a freshly seeded
	// table without racing late snapshot readers.
	owners atomic.Pointer[recOwnerTable]
	// migrations[p] counts whole-set handoffs producer p performed;
	// aggregated into Stats.Steals and Stats.Handoffs. forcedEvacs,
	// outVetoes and outStamps are its siblings for the per-set outbound
	// ledger: forced evacuations off a set's own producer's delegate,
	// migration attempts vetoed by missing outbound coverage, and ledger
	// writes (outPos stores) — the last indexed by the RECORDING context,
	// i.e. the delegate executing the producing set's operation.
	migrations  []recCounter
	forcedEvacs []recCounter
	outVetoes   []recCounter
	outStamps   []recCounter
}

func newRecStealState(producers int) *recStealState {
	st := &recStealState{
		migrations:  make([]recCounter, producers),
		forcedEvacs: make([]recCounter, producers),
		outVetoes:   make([]recCounter, producers),
		outStamps:   make([]recCounter, producers),
	}
	st.owners.Store(newRecOwnerTable())
	return st
}

// entryProducers is how many producer slots an owner-table entry carries:
// every context that could ever produce under recursion, only the program
// context otherwise.
func (rt *Runtime) entryProducers() int {
	if rt.cfg.Recursive {
		return rt.cfg.MaxDelegates + 1
	}
	return 1
}

func newRecSetEntry(owner int, producers int) *recSetEntry {
	e := &recSetEntry{
		lastPos: make([]atomic.Uint64, producers),
		outPos:  make([]atomic.Uint64, producers-1), // one slot per delegate
	}
	e.owner.Store(int32(owner))
	e.producer.Store(-1)
	return e
}

// quiescentOn reports whether every producer's recorded position for the
// set is covered by delegate owner's per-lane executed counters — the safe
// handoff (and producer-handover) boundary.
func (e *recSetEntry) quiescentOn(owner *recDelegate) bool {
	for q := range e.lastPos {
		if e.lastPos[q].Load() > owner.laneExec[q].Load() {
			return false
		}
	}
	return true
}

// recOccupancy returns delegate ctx's occupancy: messages routed to any of
// its lanes that it has not finished executing.
// O(producers) single-writer counter loads. Readers are arbitrary contexts
// racing both counters, so per lane the executed side is loaded FIRST:
// executed(t1) <= pushes(t1) <= sent(t1) <= sent(t2) (both counters are
// monotone and sent is bumped before the push), so the difference cannot
// underflow no matter how much the lane moves between the two loads —
// loading sent first would let a concurrent push+drain wrap it to ~2^64
// and corrupt every consumer of the number (threshold gate, thief scan,
// imbalance EWMA).
func (rt *Runtime) recOccupancy(ctx int) uint64 {
	sent := rt.rec.laneSent[ctx-1]
	d := rt.rec.delegates[ctx-1]
	var occ uint64
	for p := range sent {
		exec := d.laneExec[p].Load()
		occ += sent[p].n.Load() - exec
	}
	return occ
}

// leastOccupied returns the active delegate with the smallest occupancy,
// ties to the lowest id: the LeastLoaded first-touch placement.
func (rt *Runtime) leastOccupied() int {
	best, bestOcc := 1, ^uint64(0)
	for ctx := 1; ctx <= int(rt.active.Load()); ctx++ {
		if o := rt.recOccupancy(ctx); o < bestOcc {
			best, bestOcc = ctx, o
		}
	}
	return best
}

// seedOwner picks the owner of a set on its first touch of the epoch: the
// least-occupied delegate without stealing, the static table's delegate
// with it (a program-share slot falls back to a delegate by modulus — the
// owner table never places a set on the program context).
func (rt *Runtime) seedOwner(set uint64) int {
	if !rt.cfg.Stealing {
		return rt.leastOccupied()
	}
	if ctx := rt.vmap[set%uint64(len(rt.vmap))]; ctx != ProgramContext {
		return ctx
	}
	return int(set%uint64(rt.active.Load())) + 1
}

// recRoute resolves the owner of a set on the delegation path under the
// owner table, running the rebalancer for already-owned sets (Stealing
// only), bumping the lane counter, and recording the new operation's lane
// position against the entry. It returns the owning delegate context.
// Called only by the set's producer.
func (rt *Runtime) recRoute(producer int, set uint64) int {
	st := rt.rec.steal
	owners := st.owners.Load()
	e := owners.lookup(set)
	if e != nil {
		if prev := e.producer.Load(); prev != int32(producer) {
			// Producer handover: the set's delegations now arrive through a
			// different lane, so the set must be quiescent — otherwise the
			// old lane's in-flight operations have no order against the new
			// lane's. The engine only causes handovers at points where this
			// holds (maybeMigrate's outbound-drain condition); reaching a
			// non-quiescent one means the program itself delegated the set
			// from two contexts, the discipline Checked mode rejects.
			if rt.cfg.Checked && prev >= 0 &&
				!e.quiescentOn(rt.rec.delegates[e.owner.Load()-1]) {
				panic(fmt.Sprintf(
					"prometheus: serializer violation: set %d delegated from context %d while operations from context %d are in flight (under recursive stealing a set must receive delegations from one producing set — or the program context — per epoch; producer handover is legal only at a quiescent point)",
					set, producer, prev))
			}
			if !e.producer.CompareAndSwap(prev, int32(producer)) {
				// The CAS can only lose to another context claiming the
				// producer role at the same moment: two concurrent producers
				// on one set, the very violation the quiescence check above
				// can miss when both load a quiescent snapshot. Detect it
				// deterministically in Checked mode; unchecked runs keep the
				// old last-writer-wins behavior (the program is already
				// outside the model, so any placement is as good as another).
				if rt.cfg.Checked {
					panic(fmt.Sprintf(
						"prometheus: serializer violation: set %d delegated from contexts %d and %d concurrently (under recursive stealing a set must receive delegations from one producing set — or the program context — per epoch)",
						set, producer, e.producer.Load()))
				}
				e.producer.Store(int32(producer))
			}
			if int(e.owner.Load()) == producer && e.ops.Load() == 0 {
				// A hot-seeded placement guessed from the previous epoch's
				// producer, and the producer moved onto exactly that
				// delegate: honoring it would make every operation of the
				// set a self-delegation the producer may block waiting on —
				// a placement the engine must never introduce (same rule as
				// the thief scan). Nothing has been delegated yet, so the
				// empty entry can simply be re-homed next door. A set WITH
				// history whose handover lands it on its own producer (e.g.
				// the producing set migrated onto this set's owner) is
				// evacuated by maybeMigrate below, which retries on every
				// delegation under the full safety conditions — including the
				// outbound-drain check a bare re-home here could not honor.
				// The active load sits behind the owner/ops short-circuits
				// so the delegation fast path never pays for it.
				if nAct := int(rt.active.Load()); nAct > 1 {
					e.owner.Store(int32(producer%nAct + 1))
				}
			}
		}
		if rt.cfg.Stealing {
			rt.maybeMigrate(producer, set, e)
		}
	} else {
		// First touch this epoch: seed from the static assignment table
		// under stealing (hot sets were pre-placed by reseed before the
		// epoch opened) and let the rebalancer move it from there, or on the
		// least-occupied delegate without it. Claim the producer role by
		// CAS from the unclaimed -1: the lookup above missing means no
		// delegation to this set has been ORDERED before ours, so a lost CAS
		// can only be another context touching the set concurrently — the
		// same two-producer violation the handover path detects.
		e = owners.insert(set, newRecSetEntry(rt.seedOwner(set), rt.entryProducers()))
		if !e.producer.CompareAndSwap(-1, int32(producer)) {
			if rt.cfg.Checked {
				panic(fmt.Sprintf(
					"prometheus: serializer violation: set %d delegated from contexts %d and %d concurrently (under recursive stealing a set must receive delegations from one producing set — or the program context — per epoch)",
					set, producer, e.producer.Load()))
			}
			e.producer.Store(int32(producer))
		}
		if int(e.owner.Load()) == producer && e.ops.Load() == 0 {
			// The static table seeded the first touch onto the producer's
			// own delegate (possible whenever the producing set was itself
			// migrated there by an earlier steal): honoring it would make
			// every operation of the set a self-delegation the producer may
			// block waiting on — and since this is the set's FIRST
			// delegation, maybeMigrate never ran and no later delegation
			// is guaranteed to arrive and evacuate it. Nothing has been
			// delegated yet, so re-home the empty entry next door (the same
			// rule the hot-seed handover branch and the thief scan apply).
			if nAct := int(rt.active.Load()); nAct > 1 {
				e.owner.Store(int32(producer%nAct + 1))
			}
		}
	}
	owner := int(e.owner.Load())
	pos := &rt.rec.laneSent[owner-1][producer]
	pos.add(1)
	n := pos.n.Load()
	e.lastPos[producer].Store(n)
	e.ops.Add(1)
	if producer != ProgramContext {
		// A delegate-context delegation is issued by the operation that
		// delegate is currently executing: charge the new lane position to
		// that operation's set — the producing set — so the set carries a
		// precise record of its own outbound traffic.
		rt.noteOutbound(owners, producer, owner, n)
	}
	return owner
}

// noteOutbound records one nested delegation in the producing set's
// outbound ledger: the operation currently executing on delegate context
// `producer` (its set was stamped into prodSet by the drain loop) pushed a
// message at lane position pos into delegate `target`'s lane `producer`.
// The producing set's entry is resolved through a one-slot cache keyed on
// (owner table, set): successive delegations from one operation — and from
// runs of one set's operations — pay a three-field compare instead of a
// table walk; the cache can never go stale across epochs because reseed
// installs a fresh table and the pointer comparison misses. Program-like
// producers (RunParallel pool tasks, stamped noSetID) and sets absent from
// the table record nothing: their traffic belongs to no migratable set, so
// no migration's safety depends on it. Steady-state cost: one plain-field
// compare, two atomic stores, zero allocations.
func (rt *Runtime) noteOutbound(owners *recOwnerTable, producer, target int, pos uint64) {
	d := rt.rec.delegates[producer-1]
	if d.prodSet == noSetID {
		return
	}
	if d.prodEntry == nil || d.prodCachedSet != d.prodSet || d.prodTable != owners {
		d.prodEntry = owners.lookup(d.prodSet)
		d.prodCachedSet = d.prodSet
		d.prodTable = owners
	}
	pe := d.prodEntry
	if pe == nil {
		return
	}
	pe.outPos[target-1].Store(pos)
	rt.rec.steal.outStamps[producer].add(1)
}

// recOutboundCovered reports whether set e may hand its producer role away
// from owner v: every lane position the set's own operations recorded in
// the outbound ledger must be covered by the target delegate's executed
// counter for v's lane. Callers check quiescence first — with the set
// quiescent on v and its producer (the caller) not delegating, outPos is
// frozen, so the read races nothing. Under Config.LegacyOutboundVeto the
// check falls back to PR 4's strictly-stronger global condition (every
// lane v feeds fully drained, any set's traffic), kept for debugging and
// as the livelock stress's negative control.
func (rt *Runtime) recOutboundCovered(e *recSetEntry, v int) bool {
	rec := rt.rec
	if rt.cfg.LegacyOutboundVeto {
		for dx, d := range rec.delegates {
			if rec.laneSent[dx][v].n.Load() > d.laneExec[v].Load() {
				return false
			}
		}
		return true
	}
	for dx := range e.outPos {
		if e.outPos[dx].Load() > rec.delegates[dx].laneExec[v].Load() {
			return false
		}
	}
	return true
}

// evacWaitBudget bounds the parked forced-evacuation wait: the total time a
// producer stays subscribed to target delegates' coverage broadcasts before
// falling back to retry-per-delegation. The bound exists because the wait
// parks this delegate's drain loop: two delegates each waiting on coverage
// only the other can publish would otherwise block forever — a hazard only a
// program already blocking mid-operation in two places can construct, but
// one the engine must not convert from unlikely to permanent. Generous
// relative to a drain-run's latency (microseconds), tiny relative to the
// serving tier's drain deadline.
const evacWaitBudget = 50 * time.Millisecond

// waitRecOutboundCoverage is the liveness half of the forced evacuation: a
// set owned by its own producer's delegate must leave NOW — the delegation
// being routed may be the one the producing operation blocks on, so there
// may never be another retry. With the precise ledger the missing coverage
// is a concrete, observable event: the target delegates executing the
// set's recorded outbound positions, which they do independently of this
// (stuck) context. Wait for it, event-driven off the ledger, instead of
// returning and hoping for another delegation.
//
// Two cases cannot be waited out and return false immediately: traffic the
// set recorded into the victim's OWN lane (only v drains it, and v is the
// context running this wait), and legacy-veto mode (the global condition
// carries no per-set signal — any stream through the victim keeps it
// false, which is exactly the livelock the ledger exists to close).
func (rt *Runtime) waitRecOutboundCoverage(e *recSetEntry, v int) bool {
	if rt.cfg.LegacyOutboundVeto {
		return false
	}
	rec := rt.rec
	if e.outPos[v-1].Load() > rec.delegates[v-1].laneExec[v].Load() {
		return false // self-lane traffic: waiting would deadlock v on itself
	}
	// Park on the target delegates' coverage broadcasts instead of
	// Gosched-spinning: a draining server's forced evacuation must not burn
	// a core while an overloaded peer works through the backlog. One
	// subscription per uncovered target, re-checked between subscribe and
	// park so a publish racing the subscription cannot be lost (the drain
	// loop re-reads covWaiters AFTER its laneExec store; seq-cst atomics
	// order waiter-Add < recheck-load on this side against exec-store <
	// waiter-load on that side, so one of the two always observes the other).
	var deadline *time.Timer
	for {
		target := -1
		for dx := range e.outPos {
			if e.outPos[dx].Load() > rec.delegates[dx].laneExec[v].Load() {
				target = dx
				break
			}
		}
		if target < 0 {
			if deadline != nil {
				deadline.Stop()
			}
			return true
		}
		d := rec.delegates[target]
		ch := d.covSubscribe()
		if e.outPos[target].Load() <= d.laneExec[v].Load() {
			d.covUnsubscribe() // covered while subscribing; move on
			continue
		}
		if deadline == nil {
			deadline = time.NewTimer(evacWaitBudget)
		}
		select {
		case <-ch:
			d.covUnsubscribe()
		case <-deadline.C:
			d.covUnsubscribe()
			return false
		}
	}
}

// maybeMigrate is the whole-set rebalancer, run by a set's producer on
// every delegation to an already-owned set under Stealing: loaded victim,
// quiescent set, idle-or-far-underloaded thief — with the quiescence check
// covering every producer lane and the producer-handover safety checked
// against the set's own outbound ledger.
// The common case (owner below threshold) costs O(producers) counter loads
// and no atomics beyond them; nothing on this path takes a lock.
//
// One placement forces a migration regardless of load: the producer's own
// delegate owning the set (a producer handover can create this — e.g. the
// producing set migrated onto the delegate where this nested set lives).
// Every operation routed there would be a self-delegation the producer may
// block waiting on, so the set is evacuated to the least-occupied peer
// under the SAME safety conditions an ordinary steal needs — quiescence
// and the set's own outbound traffic covered. When only coverage is
// missing, the producer waits for it on the spot (event-driven off the
// ledger, bounded — see waitRecOutboundCoverage) rather than retrying on a
// later delegation: for a program about to block mid-operation on this
// very set, this delegation is the last scheduling decision the engine
// ever gets to make.
func (rt *Runtime) maybeMigrate(producer int, set uint64, e *recSetEntry) {
	rec := rt.rec
	st := rec.steal
	v := int(e.owner.Load())
	vd := rec.delegates[v-1]
	// O(1) fast path first: a streaming set's newest operation from this
	// producer is almost always still queued or running, and that alone
	// rules the handoff out — two loads, before any O(producers) scan.
	if e.lastPos[producer].Load() > vd.laneExec[producer].Load() {
		return
	}
	if e.poison.Load() != nil {
		// Poisoned sets are never stolen — and never force-evacuated: every
		// further delegation to the set is dropped at the producer, so the
		// self-delegation hazard the evacuation exists for cannot arise. The
		// fast path above proved this producer's newest operation covered,
		// which happens-after the faulting operation's counter publish and
		// therefore after the poison store: the check cannot race the fault.
		return
	}
	forced := v == producer // self-owned: evacuate, don't wait for load
	var vOut uint64
	if !forced {
		vOut = rt.recOccupancy(v)
		if vOut < uint64(rt.stealThreshold()) {
			return
		}
	}
	if !e.quiescentOn(vd) {
		return // another producer's newest op on this set is queued or running
	}
	// Outbound-coverage condition: every nested delegation THIS SET'S
	// operations pushed through the victim's lanes must have executed.
	// Migrating the set moves the producer role of its operations, and the
	// only way its nested sets' per-lane order survives the handover is if
	// everything the set already fed them has run first. Other sets'
	// in-flight lanes are irrelevant (they feed other nested sets, by the
	// one-producing-set discipline) and no longer block the migration —
	// that over-wide veto was PR 4's livelock.
	if !rt.recOutboundCovered(e, v) {
		if !forced || !rt.waitRecOutboundCoverage(e, v) {
			st.outVetoes[producer].add(1)
			return
		}
	}
	thief, tOut := 0, ^uint64(0)
	for _, d := range rec.delegates[:int(rt.active.Load())] {
		if d.id == v || d.id == producer {
			// Never hand a set to its own producer's context: that would
			// silently turn its operations into self-delegations, and a
			// producer that waits on them mid-operation (markers, wave
			// throttling) could then never see them run — the engine must
			// not introduce a placement the program didn't choose that only
			// the spill tier keeps from deadlocking outright.
			continue
		}
		if o := rt.recOccupancy(d.id); o < tOut {
			thief, tOut = d.id, o
		}
	}
	if thief == 0 || (!forced && tOut*rt.stealRatio() > vOut) {
		return // no peer meaningfully less occupied than the victim
	}
	if rt.cfg.Checked && (!e.quiescentOn(vd) || !rt.recOutboundCovered(e, v)) {
		// Debug cross-check of the third-generation protocol: the checks
		// above just passed, the set's producer is us, and both conditions
		// read monotone counters — re-reading them false here means the
		// ledger itself was corrupted (a stamp from an operation that
		// should not have been running, i.e. a producer-discipline
		// violation the earlier snapshots missed).
		panic(fmt.Sprintf(
			"prometheus: serializer violation: set %d migrating off delegate %d while the per-set ledger shows uncovered traffic (an operation of the set, or a nested delegation it issued, is still in flight — under recursive stealing a set must receive delegations from one producing set per epoch)",
			set, v))
	}
	// Quiescent multi-producer boundary reached: hand the whole set over.
	// lastPos values are lane positions relative to ONE owner's counters,
	// and the owner is about to change, so every recorded position is now
	// meaningless: former producers' entries would be compared against the
	// thief's unrelated laneExec and could keep the set looking
	// non-quiescent forever (blocking every future handoff, and spuriously
	// tripping the Checked-mode handover panic on a legal program). The
	// quiescence + outbound-drain checks above proved the set fully drained
	// on the victim, and we are its sole producer, so zero the stale
	// entries, fence our own lastPos at the thief's current lane depth (the
	// set must not look quiescent on the thief ahead of messages already
	// queued there), then publish the new owner and stamp the handoff.
	for q := range e.lastPos {
		if q != producer {
			e.lastPos[q].Store(0)
		}
	}
	// The outbound ledger rebases the same way: its positions are counts in
	// lanes the OLD owner feeds, which the coverage check just proved
	// drained; the set's future operations run on the thief and re-record
	// against the thief's lanes, ordered behind this zeroing by the lane
	// FIFO that carries them there.
	for dx := range e.outPos {
		e.outPos[dx].Store(0)
	}
	e.lastPos[producer].Store(rec.laneSent[thief-1][producer].n.Load())
	e.owner.Store(int32(thief))
	e.stamp.Add(1)
	st.migrations[producer].add(1)
	if forced {
		st.forcedEvacs[producer].add(1)
	}
	if ts := rt.traceSt; ts != nil {
		// A steal is a scheduling decision, not a span: record it as an
		// instant on the producer's (this goroutine's) buffer.
		now := timeNow()
		ts.record(producer, TraceSteal, set, now, now)
	}
}

// reseed installs a fresh owner table for a new isolation epoch,
// pre-placing the previous epoch's top k hot sets round-robin across
// delegates (ranked by per-set op counts, ties broken by set id so the
// seeding itself is deterministic). First-touch placement piles the static
// table's hottest sets onto one delegate and waits for the rebalancer to
// fix it; seeding starts the epoch already spread. A set is never seeded
// onto its previous epoch's producer: producers are stable across epochs
// in practice, and placing a set on its own producer would turn its
// operations into self-delegations the producer may be waiting on (the
// same rule the thief scan applies). Returns how many sets were
// pre-placed. Program context only, between epochs (all contexts
// quiescent).
// producers is the entry producer count (entryProducers), NOT
// delegates+1: entry arrays must index every context that could ever
// produce, while placement spreads over only the currently active pool.
func (st *recStealState) reseed(delegates, k, producers int) int {
	var hot []hotSeed
	if k > 0 {
		hot = rankHotSets(st.owners.Load(), k)
	}
	next := newRecOwnerTable()
	slot := 0
	for _, h := range hot {
		d := slot%delegates + 1
		if delegates > 1 && d == int(h.producer) {
			slot++
			d = slot%delegates + 1
		}
		next.insert(h.set, newRecSetEntry(d, producers))
		slot++
	}
	st.owners.Store(next)
	return len(hot)
}

// hotSeedCount bounds how many hot sets BeginIsolation pre-places: two per
// delegate spreads the head of the distribution without pinning the long
// tail to stale placements.
func hotSeedCount(delegates int) int { return 2 * delegates }

// hotSeed is one ranked entry of the closing epoch: the set, how many
// operations it received, and which context produced it.
type hotSeed struct {
	set      uint64
	ops      uint64
	producer int32
}

// topHotSeeds sorts seeds by (ops desc, set asc) — the deterministic
// hotness ranking — and truncates to the top k.
// The input is every set the closing epoch touched (possibly very many;
// only the output is small), so this must stay O(N log N) on the program
// context's epoch-transition path.
func topHotSeeds(all []hotSeed, k int) []hotSeed {
	sort.Slice(all, func(i, j int) bool {
		if all[i].ops != all[j].ops {
			return all[i].ops > all[j].ops
		}
		return all[i].set < all[j].set
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// rankHotSets returns the top-k sets of the previous epoch by
// delegated-op count, hottest first, ties by ascending set id.
func rankHotSets(owners *recOwnerTable, k int) []hotSeed {
	var all []hotSeed
	owners.forEach(func(set uint64, e *recSetEntry) {
		if e.poison.Load() != nil {
			return // poisoned sets are never hot-seeded into the next epoch
		}
		if n := e.ops.Load(); n > 0 {
			all = append(all, hotSeed{set, n, e.producer.Load()})
		}
	})
	return topHotSeeds(all, k)
}

// In-epoch adaptive steal threshold. The capacity-derived default only
// adapts across configurations; within an epoch the right threshold
// depends on how skewed the epoch actually is. Delegates sample the
// max/min delegate-occupancy ratio at drain-run boundaries into an EWMA
// (fixed-point, alpha 1/8), and the effective threshold is the base scaled
// down by that ratio, clamped to the [MinStealThreshold, MaxStealThreshold]
// band: a balanced epoch (ratio ~1) keeps ownership sticky, a skewed one
// (loaded max, idle min) pulls the threshold toward MinStealThreshold so
// help arrives early. Multiple delegates race the read-modify-write;
// losing an update only delays convergence, so no CAS loop is needed.

// ewmaFP is the fixed-point scale of the imbalance EWMA (ratio 1.0 == 16).
const ewmaFP = 16

// imbalanceSampleStride is how many drain runs a delegate completes between
// imbalance samples. Sampling is O(delegates·producers) loads plus RMWs on
// shared EWMA words, so doing it at EVERY drain-run boundary would put
// cross-core cache-line ping-pong inside the hottest consumer loops; one
// sample every stride runs feeds the EWMA the same signal (occupancy spread
// changes over many runs, not one) at a fraction of the cost. Idle
// recursive delegates sample eagerly while spinning down instead — they
// ARE the min-occupancy extreme the EWMA exists to detect, and they have
// nothing better to do — which keeps skew detection fast.
const imbalanceSampleStride = 8

// stealThreshold returns the effective threshold for this delegation:
// the adaptive value when the threshold was derived, the configured one
// when it was explicit.
func (rt *Runtime) stealThreshold() int {
	if rt.cfg.AdaptiveSteal {
		return int(rt.adaptiveThr.Load())
	}
	return int(rt.baseThr.Load())
}

// stealRatio returns the thief-eligibility ratio R for this delegation: a
// steal fires only when the thief's occupancy times R is at most the
// victim's. The imbalance EWMA drives it the same way it drives the
// threshold — at balance (ratio ~1) it is exactly defaultStealRatio, the
// fixed value PR 2–4 hard-coded, and observed skew relaxes it toward
// minStealRatio so a moderately-loaded peer can still help a drowning
// victim; the clamp ceiling bounds how sticky a transiently-low EWMA can
// make ownership. An explicit WithStealThreshold pins both the threshold
// and the ratio (AdaptiveSteal off).
func (rt *Runtime) stealRatio() uint64 {
	if !rt.cfg.AdaptiveSteal {
		return defaultStealRatio
	}
	r := int64(defaultStealRatio*ewmaFP) / rt.imbalanceEWMA.Load()
	if r < minStealRatio {
		r = minStealRatio
	}
	if r > maxStealRatio {
		r = maxStealRatio
	}
	return uint64(r)
}

// noteImbalance folds one max/min occupancy observation into the EWMA and
// re-derives the effective threshold. Called from delegate drain loops at
// drain-run boundaries, only when AdaptiveSteal.
func (rt *Runtime) noteImbalance(maxOcc, minOcc uint64) {
	ratio := int64(((maxOcc + 1) * ewmaFP) / (minOcc + 1))
	old := rt.imbalanceEWMA.Load()
	ewma := old + (ratio-old)/8
	if ewma == old && ratio != old {
		// Fixed-point floor stalled the EWMA short of the target; step by
		// one so persistent small imbalances still converge.
		if ratio > old {
			ewma++
		} else {
			ewma--
		}
	}
	if ewma < 1 {
		ewma = 1 // divide guard: racy lost updates must never zero the EWMA
	}
	if ewma != old {
		// Guarded like adaptiveThr below: in a balanced steady state every
		// sampler would otherwise re-store the same value, dirtying the
		// shared line the idle-delegate samplers all read.
		rt.imbalanceEWMA.Store(ewma)
	}
	// At balance (ewma == ewmaFP) this is exactly the configured base —
	// the capacity-derived default the config docs promise — and skew only
	// ever scales it DOWN from there toward the clamp floor.
	thr := rt.baseThr.Load() * ewmaFP / ewma
	if thr < MinStealThreshold {
		thr = MinStealThreshold
	}
	if thr > MaxStealThreshold {
		thr = MaxStealThreshold
	}
	if rt.adaptiveThr.Load() != thr {
		rt.adaptiveThr.Store(thr)
		rt.thresholdAdjusts.Add(1)
	}
}

// sampleImbalance feeds the pool-wide occupancy spread, read from the lane
// ledger (O(delegates*producers) single-writer loads), into the EWMA.
func (rt *Runtime) sampleImbalance() {
	maxOcc, minOcc := uint64(0), ^uint64(0)
	for ctx := 1; ctx <= int(rt.active.Load()); ctx++ {
		n := rt.recOccupancy(ctx)
		if n > maxOcc {
			maxOcc = n
		}
		if n < minOcc {
			minOcc = n
		}
	}
	rt.noteImbalance(maxOcc, minOcc)
}
