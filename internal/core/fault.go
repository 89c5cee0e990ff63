package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Fault containment. A panicking delegated operation must not kill the
// process (the serving-tier north star: one bad request cannot take the
// runtime down) and must not wedge a barrier (quiescence is proved by
// executed counters only the faulting delegate publishes). The drain loop
// therefore runs invocations inside recover()-protected execution spans
// (recExecSpan): a recovered panic is recorded here, the faulted operation
// is COUNTED AS EXECUTED so the lane ledger the scheduling protocols rest
// on — occupancy, handoff coverage, barrier sums — keeps advancing, and
// the delegate goroutine stays alive.
//
// Determinism is preserved by set poisoning: the faulting operation's
// serialization set is poisoned for the remainder of the isolation epoch,
// and every subsequent delegation to it is dropped-but-counted. Per-set
// program order makes the outcome deterministic — the set executes exactly
// its prefix up to the faulting position, and everything after is skipped.
// The skip is enforced twice: at delegation time by the producer (the
// cheap, common case) and at drain time by the owner (which closes the
// producer-visibility race: the owner wrote the poison itself, and a
// poisoned set is never stolen — see maybeMigrate — so its
// backlog always drains on the context that can see the poison).
//
// All fault state is lazily allocated: a fault-free runtime carries one nil
// atomic pointer, the delegation hot path pays one atomic load, and the
// drain loops pay one load per drain run — nothing else, which is what
// keeps the 0 allocs/op gates and the PR1/PR3/PR4 benchmark baselines
// intact with containment compiled in unconditionally.

// NoSet is the serialization-set id reported for faults in operations that
// belong to no set — RunParallel pool tasks. It aliases the engine's
// reserved pool-task sentinel; user delegations may not use it (Checked
// mode rejects it), so a PanicFault carrying it is unambiguous.
const NoSet = noSetID

// PanicFault describes one contained panic: which set's operation faulted
// (NoSet for pool tasks), on which delegate context, in which isolation
// epoch, with the recovered value and the stack captured during unwinding
// (it includes the panicking frames — the original failure site).
type PanicFault struct {
	Set   uint64
	Ctx   int
	Epoch uint64
	Value any
	Stack []byte
}

// faultState is the runtime's containment record, allocated on the first
// contained panic (Runtime.faults stays nil on the fault-free path).
type faultState struct {
	// mu serializes writers (faulting delegates append records and replace
	// the poison map) and record readers; readers never take it on the
	// delegation path.
	mu sync.Mutex
	// poisoned is the current epoch's poisoned-set table, copy-on-write
	// behind an atomic pointer so producers and drain loops read it with one
	// load and no lock. Values point at the fault that poisoned the set.
	// BeginIsolation clears it — poisoning is epoch-scoped; records are not.
	poisoned atomic.Pointer[map[uint64]*PanicFault]
	// records is a bounded ring of the most recent contained panics, in
	// containment order (concurrent faults on different delegates append in
	// arrival order). A long-lived runtime — the serving tier runs for
	// weeks — must not let every contained panic pin a stack forever, so
	// once len(records) reaches bound the oldest record is evicted and
	// droppedRec counts it. head indexes the oldest live record.
	records []*PanicFault
	head    int
	bound   int
	// bySet indexes the live records by serialization set, so the serving
	// tier's per-failed-request SetFaults/SetErr lookups walk only that
	// set's faults instead of every fault the runtime ever contained.
	// Slices hold records in containment order; ring eviction pops the
	// global oldest record, which is by construction the head of its set's
	// slice.
	bySet map[uint64][]*PanicFault

	panics       atomic.Uint64 // contained panics (Stats.Panics)
	poisonedSets atomic.Uint64 // sets ever poisoned (Stats.PoisonedSets)
	dropped      atomic.Uint64 // delegations dropped on poisoned sets (Stats.DroppedOps)
	droppedRec   atomic.Uint64 // fault records evicted by the ring bound (Stats.DroppedFaults)
}

// addRecord appends f to the bounded record ring and the per-set index.
// Caller holds fs.mu.
func (fs *faultState) addRecord(f *PanicFault) {
	if len(fs.records) >= fs.bound {
		old := fs.records[fs.head]
		fs.records[fs.head] = f
		fs.head = (fs.head + 1) % fs.bound
		fs.evictFromIndex(old)
		fs.droppedRec.Add(1)
	} else {
		fs.records = append(fs.records, f)
	}
	fs.bySet[f.Set] = append(fs.bySet[f.Set], f)
}

// evictFromIndex removes the globally-oldest record — the head of its set's
// slice — from the per-set index. Caller holds fs.mu.
func (fs *faultState) evictFromIndex(old *PanicFault) {
	s := fs.bySet[old.Set]
	if len(s) <= 1 {
		delete(fs.bySet, old.Set)
		return
	}
	fs.bySet[old.Set] = s[1:]
}

// snapshotRecords returns the live records oldest-first. Caller holds fs.mu.
func (fs *faultState) snapshotRecords() []PanicFault {
	out := make([]PanicFault, len(fs.records))
	for i := range fs.records {
		out[i] = *fs.records[(fs.head+i)%len(fs.records)]
	}
	return out
}

// lookup returns the fault that poisoned set this epoch, or nil. Lock-free;
// the delegation and drain hot paths call it only after observing a non-nil
// faultState.
func (fs *faultState) lookup(set uint64) *PanicFault {
	m := fs.poisoned.Load()
	if m == nil {
		return nil
	}
	return (*m)[set]
}

// resetPoison clears the poisoned-set table at an epoch boundary (program
// context, all delegates quiescent behind the EndIsolation barrier).
func (fs *faultState) resetPoison() {
	fs.mu.Lock()
	fs.poisoned.Store(nil)
	fs.mu.Unlock()
}

// ensureFaults returns the containment record, allocating it on first use.
func (rt *Runtime) ensureFaults() *faultState {
	if fs := rt.faults.Load(); fs != nil {
		return fs
	}
	fs := &faultState{bound: rt.cfg.FaultRecordBound, bySet: make(map[uint64][]*PanicFault)}
	if rt.faults.CompareAndSwap(nil, fs) {
		return fs
	}
	return rt.faults.Load()
}

// recordPanic is the containment point the drain loop's recover handler calls:
// capture the stack (still inside the unwinding deferred call, so the
// panicking frames are on it), append the fault record, poison the set, and
// emit the trace event. The caller publishes its executed counters AFTER
// this returns — that ordering is what makes poisoning deterministic for
// everyone else: any context that later proves the faulted operation
// executed (quiescence checks, steal coverage proofs) has a happens-before
// edge to the poison store and must observe it.
//
// Reading rt.epoch from a delegate goroutine is race-free by the epoch
// protocol: the counter only changes in BeginIsolation, which the program
// context reaches only behind a barrier that proved every delegate
// quiescent, and the increment happens-before any operation delegated in
// the new epoch via the queue that delivered it.
func (rt *Runtime) recordPanic(ctx int, set uint64, v any) {
	stack := debug.Stack()
	fs := rt.ensureFaults()
	f := &PanicFault{Set: set, Ctx: ctx, Epoch: rt.epoch, Value: v, Stack: stack}
	fs.mu.Lock()
	fs.addRecord(f)
	if set != noSetID {
		old := fs.poisoned.Load()
		if old == nil || (*old)[set] == nil {
			m := make(map[uint64]*PanicFault, 1)
			if old != nil {
				for s, pf := range *old {
					m[s] = pf
				}
			}
			m[set] = f
			fs.poisoned.Store(&m)
			fs.poisonedSets.Add(1)
			if st := rt.rec.steal; st != nil {
				// Mirror the poison into the owner-table entry so the
				// rebalancer's no-steal check is one atomic load.
				if e := st.owners.Load().lookup(set); e != nil {
					e.poison.Store(f)
				}
			}
		}
	}
	fs.mu.Unlock()
	fs.panics.Add(1)
	if ts := rt.traceSt; ts != nil {
		ts.recordPanicEvent(ctx, set, rt.epoch, timeNow())
	}
}

// maybeDrop implements the producer-side half of set poisoning on the
// delegation path: a delegation to a poisoned set is dropped-but-counted
// (Checked mode fails fast instead, re-raising with the original stack).
// Callers gate on a non-nil faultState, so the fault-free path never
// reaches the map lookup. Returns whether the delegation was dropped.
func (rt *Runtime) maybeDrop(fs *faultState, set uint64) bool {
	f := fs.lookup(set)
	if f == nil {
		return false
	}
	if rt.cfg.Checked {
		panic(fmt.Sprintf(
			"prometheus: delegation to poisoned set %d: an operation of the set panicked on context %d in epoch %d: %v\n--- original panic stack ---\n%s",
			f.Set, f.Ctx, f.Epoch, f.Value, f.Stack))
	}
	fs.dropped.Add(1)
	return true
}

// Faults returns a snapshot of the retained contained panics (the most
// recent Config.FaultRecordBound of them), in containment order; nil when
// no delegated operation has faulted. Safe from any goroutine: the record
// ring is mutex-protected, so the serving tier's handler goroutines may
// query faults concurrently with the program context and with faulting
// delegates.
func (rt *Runtime) Faults() []PanicFault {
	fs := rt.faults.Load()
	if fs == nil {
		return nil
	}
	fs.mu.Lock()
	out := fs.snapshotRecords()
	fs.mu.Unlock()
	return out
}

// SetFaults returns the retained contained panics recorded against one
// serialization set (across all epochs); nil when the set never faulted —
// O(faults on that set) via the per-set index, not O(all faults), because
// the serving tier calls this on every failed request. Safe from any
// goroutine, like Faults.
func (rt *Runtime) SetFaults(set uint64) []PanicFault {
	fs := rt.faults.Load()
	if fs == nil {
		return nil
	}
	var out []PanicFault
	fs.mu.Lock()
	if recs := fs.bySet[set]; len(recs) > 0 {
		out = make([]PanicFault, len(recs))
		for i, f := range recs {
			out[i] = *f
		}
	}
	fs.mu.Unlock()
	return out
}

// DroppedFaults reports how many fault records the bounded ring has
// evicted (Stats.DroppedFaults). Safe from any goroutine.
func (rt *Runtime) DroppedFaults() uint64 {
	fs := rt.faults.Load()
	if fs == nil {
		return 0
	}
	return fs.droppedRec.Load()
}

// Poisoned reports whether the set is poisoned in the current epoch
// (poisoning clears at BeginIsolation; fault records do not). Lock-free —
// one atomic load plus a read-only map lookup — and safe from any
// goroutine: the poison table is copy-on-write.
func (rt *Runtime) Poisoned(set uint64) bool {
	fs := rt.faults.Load()
	return fs != nil && fs.lookup(set) != nil
}

// PoisonedCount reports how many sets are poisoned in the current epoch —
// the live "how degraded is this runtime right now" gauge the serving
// tier's health endpoint exposes (Stats.PoisonedSets is the cumulative
// ever-poisoned counter). Lock-free and safe from any goroutine: the
// poison table is copy-on-write.
func (rt *Runtime) PoisonedCount() int {
	fs := rt.faults.Load()
	if fs == nil {
		return 0
	}
	m := fs.poisoned.Load()
	if m == nil {
		return 0
	}
	return len(*m)
}
