package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// Unit tests for the recursive whole-set handoff protocol (recsteal.go):
// the owner table, the multi-producer quiescence check against the
// laneSent/laneExec ledgers, the in-epoch adaptive threshold, and hot-set
// seeded placement. The shapes are built by hand (gated operations pin a
// delegate with an observably empty backlog) so every assertion is
// structural, not timing-dependent.

func recStealCfg(delegates, threshold int) Config {
	return Config{
		Delegates:      delegates,
		Recursive:      true,
		Policy:         LeastLoaded,
		Stealing:       true,
		StealThreshold: threshold,
	}
}

// waitLaneExec polls delegate ctx's published per-lane executed counter
// until it covers lane position pos for the given producer.
func waitLaneExec(t *testing.T, rt *Runtime, ctx, producer int, pos uint64) {
	t.Helper()
	d := rt.rec.delegates[ctx-1]
	deadline := time.Now().Add(5 * time.Second)
	for d.laneExec[producer].Load() < pos {
		if time.Now().After(deadline) {
			t.Fatalf("delegate %d lane %d never reached executed=%d (at %d)",
				ctx, producer, pos, d.laneExec[producer].Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// recOwner reads the dynamic owner of a set (0 when untracked).
func recOwner(rt *Runtime, set uint64) int {
	if e := rt.rec.steal.owners.Load().lookup(set); e != nil {
		return int(e.owner.Load())
	}
	return 0
}

// TestRecursiveStealHandsOffQuiescentSet is the recursive analogue of the
// flat handoff test: delegate 1 is pinned by a gated operation while a
// second set — every operation of which has executed — gets its next
// delegation. The rebalancer must hand the whole set to the idle peer.
// Delegates=2, VirtualDelegates=8: vmap[v] = v%2+1, so even sets seed on
// delegate 1 and odd sets on delegate 2.
func TestRecursiveStealHandsOffQuiescentSet(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(2, 1))
	rt.BeginIsolation()
	defer rt.EndIsolation()

	// Set 200 (-> delegate 1) runs one op to completion: entry exists,
	// lane position recorded, covered by laneExec after the drain.
	rt.Delegate(200, func(int) {})
	waitLaneExec(t, rt, 1, ProgramContext, 1)
	if got := recOwner(rt, 200); got != 1 {
		t.Fatalf("set 200 seeded on delegate %d, want 1 (static map)", got)
	}

	// Pin delegate 1 (set 100 -> delegate 1) so it is a loaded victim,
	// then delegate to the quiescent set 200 again.
	release := startGated(rt, 100)
	if ctx := rt.Delegate(200, func(int) {}); ctx != 2 {
		t.Fatalf("quiescent set 200 delegated to %d, want stolen to idle delegate 2", ctx)
	}
	release()
	if got := recOwner(rt, 200); got != 2 {
		t.Fatalf("owner table has set 200 on %d, want 2", got)
	}
	st := rt.Stats()
	if st.Steals != 1 || st.Handoffs != 1 {
		t.Fatalf("Steals/Handoffs = %d/%d, want 1/1", st.Steals, st.Handoffs)
	}
	// Sticky after the handoff: with the thief idle again the set stays.
	waitLaneExec(t, rt, 2, ProgramContext, 1)
	if ctx := rt.Delegate(200, func(int) {}); ctx != 2 {
		t.Fatalf("post-steal delegation went to %d, want sticky thief 2", ctx)
	}
}

// TestRecursiveNoStealWhileInFlight pins the safety half of the
// multi-producer protocol: a set whose newest operation — issued by a
// DELEGATE producer, through its own lane — is still queued on the pinned
// owner must not move, no matter how loaded that owner is, because the
// producer's recorded lane position is not covered by the owner's laneExec.
func TestRecursiveNoStealWhileInFlight(t *testing.T) {
	// Delegates=3, VirtualDelegates=12: set s seeds on delegate s%3+1 for
	// s<12. Set 1 -> delegate 2 (the producer op), set 0 and 3 -> delegate 1.
	rt := newTestRuntime(t, recStealCfg(3, 1))
	rt.BeginIsolation()

	release := startGated(rt, 3) // pin delegate 1
	var order []int
	var owners [2]int
	done := make(chan struct{})
	rt.Delegate(1, func(ctx int) { // runs on delegate 2: the producer
		owners[0] = rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 1) })
		// Owner occupancy >= threshold and a thief (delegate 3) is idle,
		// but op 1 above is still queued behind the gate: no handoff.
		owners[1] = rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 2) })
		close(done)
	})
	<-done
	if owners[0] != 1 || owners[1] != 1 {
		t.Fatalf("in-flight set routed to %v, want [1 1]", owners)
	}
	release()
	rt.EndIsolation()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("per-set order = %v, want [1 2]", order)
	}
	if st := rt.Stats(); st.Handoffs != 0 {
		t.Fatalf("Handoffs = %d, want 0 (set was in flight)", st.Handoffs)
	}
}

// TestRecursiveStealMultiProducerHandoff is the positive multi-producer
// case: a set produced by a delegate context migrates at its quiescent
// boundary — the producer's recorded lane position is covered by the
// victim's per-lane executed counter — and lands on the idle third
// delegate, preserving per-set order across the handoff.
func TestRecursiveStealMultiProducerHandoff(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(3, 1))
	rt.BeginIsolation()

	var order []int
	step1 := make(chan struct{})
	rt.Delegate(1, func(ctx int) { // producer runs on delegate 2
		rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 1) })
		close(step1)
	})
	<-step1
	waitLaneExec(t, rt, 1, 2, 1) // set 0's op (lane: delegate 2 -> 1) executed

	release := startGated(rt, 3) // pin delegate 1: loaded victim
	var stolenTo atomic.Int64
	step2 := make(chan struct{})
	rt.Delegate(1, func(ctx int) {
		stolenTo.Store(int64(rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 2) })))
		close(step2)
	})
	<-step2
	release()
	rt.EndIsolation()

	if got := stolenTo.Load(); got != 3 {
		t.Fatalf("quiescent delegate-produced set routed to %d, want stolen to idle delegate 3", got)
	}
	if got := recOwner(rt, 0); got != 3 {
		t.Fatalf("owner table has set 0 on %d, want 3", got)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("per-set order across handoff = %v, want [1 2]", order)
	}
	st := rt.Stats()
	if st.Handoffs != 1 || st.Steals != 1 {
		t.Fatalf("Handoffs/Steals = %d/%d, want 1/1", st.Handoffs, st.Steals)
	}
}

// TestRecursiveStealStampCountsHandoffs: the per-set epoch stamp advances
// once per migration, so drain-path observers can order handoffs without
// a lock.
func TestRecursiveStealStampCountsHandoffs(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(2, 1))
	rt.BeginIsolation()
	defer rt.EndIsolation()

	rt.Delegate(200, func(int) {})
	waitLaneExec(t, rt, 1, ProgramContext, 1)
	release := startGated(rt, 100)
	rt.Delegate(200, func(int) {}) // steal 1 -> 2
	release()
	e := rt.rec.steal.owners.Load().lookup(200)
	if stamp := e.stamp.Load(); stamp != 1 {
		t.Fatalf("handoff stamp = %d, want 1", stamp)
	}
}

// TestAdaptiveThresholdTracksImbalance drives the EWMA directly: sustained
// skew must pull the effective threshold down to the clamp floor, renewed
// balance must push it back up, and every change must be counted.
func TestAdaptiveThresholdTracksImbalance(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded, Stealing: true})
	if !rt.cfg.AdaptiveSteal {
		t.Fatal("derived StealThreshold did not mark AdaptiveSteal")
	}
	base := rt.cfg.StealThreshold
	if got := rt.stealThreshold(); got != base {
		t.Fatalf("initial effective threshold = %d, want base %d", got, base)
	}
	for i := 0; i < 200; i++ {
		rt.noteImbalance(256, 0) // heavy skew
	}
	if got := rt.stealThreshold(); got != MinStealThreshold {
		t.Fatalf("threshold under sustained skew = %d, want clamp floor %d", got, MinStealThreshold)
	}
	for i := 0; i < 400; i++ {
		rt.noteImbalance(3, 3) // balanced pool
	}
	if got := rt.stealThreshold(); got <= MinStealThreshold {
		t.Fatalf("threshold after re-balancing = %d, want > %d", got, MinStealThreshold)
	}
	if got := rt.stealThreshold(); got > MaxStealThreshold {
		t.Fatalf("threshold = %d escaped the [%d,%d] band", got, MinStealThreshold, MaxStealThreshold)
	}
	if st := rt.Stats(); st.ThresholdAdjusts == 0 {
		t.Fatal("ThresholdAdjusts = 0 after threshold movement")
	}
}

// TestExplicitThresholdNotAdaptive: an explicit WithStealThreshold stays
// fixed no matter what the samplers observe.
func TestExplicitThresholdNotAdaptive(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded, Stealing: true, StealThreshold: 7})
	if rt.cfg.AdaptiveSteal {
		t.Fatal("explicit StealThreshold marked AdaptiveSteal")
	}
	rt.noteImbalance(1000, 0)
	if got := rt.stealThreshold(); got != 7 {
		t.Fatalf("explicit threshold moved to %d, want 7", got)
	}
}

// TestHotSetSeedingFlat: the closing epoch's hottest sets are pre-placed
// round-robin (hottest first, ties by id) when the next epoch opens, and
// the count is reported.
func TestHotSetSeedingFlat(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded, Stealing: true})
	rt.BeginIsolation()
	for i, n := range map[uint64]int{5: 10, 6: 4, 7: 1} {
		for j := 0; j < n; j++ {
			rt.Delegate(i, func(int) {})
		}
	}
	rt.EndIsolation()
	rt.BeginIsolation()
	defer rt.EndIsolation()
	owners := rt.rec.steal.owners.Load()
	if got := owners.count; got != 3 {
		t.Fatalf("seeded owner table has %d entries, want 3", got)
	}
	for set, want := range map[uint64]int{5: 1, 6: 2, 7: 1} {
		e := owners.lookup(set)
		if e == nil || int(e.owner.Load()) != want {
			t.Fatalf("hot set %d seeded on %d, want delegate %d", set, recOwner(rt, set), want)
		}
		if pos := e.lastPos[ProgramContext].Load(); pos != 0 {
			t.Fatalf("seeded set %d carries lastPos %d, want 0 (quiescent)", set, pos)
		}
	}
	if st := rt.Stats(); st.HotSetsPlaced != 3 {
		t.Fatalf("HotSetsPlaced = %d, want 3", st.HotSetsPlaced)
	}
}

// TestHotSetSeedingFlatTopK: only the top 2*Delegates sets are pre-placed.
func TestHotSetSeedingFlatTopK(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded, Stealing: true})
	rt.BeginIsolation()
	for s := uint64(0); s < 10; s++ {
		for j := 0; j <= int(s); j++ {
			rt.Delegate(s, func(int) {})
		}
	}
	rt.EndIsolation()
	rt.BeginIsolation()
	defer rt.EndIsolation()
	if got, want := rt.rec.steal.owners.Load().count, hotSeedCount(2); got != want {
		t.Fatalf("seeded %d sets, want top-%d", got, want)
	}
	// Hottest-first round-robin: 9 -> d1, 8 -> d2, 7 -> d1, 6 -> d2.
	for set, want := range map[uint64]int{9: 1, 8: 2, 7: 1, 6: 2} {
		if got := recOwner(rt, set); got != want {
			t.Fatalf("set %d seeded on %d, want delegate %d", set, got, want)
		}
	}
}

// TestHotSetSeedingRecursive: same contract for the recursive owner table —
// the top sets of the closing epoch enter the new epoch pre-placed
// round-robin instead of on their static homes.
func TestHotSetSeedingRecursive(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(2, MaxStealThreshold)) // high threshold: no migrations
	rt.BeginIsolation()
	for s := uint64(200); s < 210; s += 2 { // all even: static home delegate 1
		for j := uint64(0); j < (s-198)/2; j++ {
			rt.Delegate(s, func(int) {})
		}
	}
	rt.EndIsolation()
	rt.BeginIsolation()
	defer rt.EndIsolation()
	// Hottest first: 208(5 ops)->d1, 206(4)->d2, 204(3)->d1, 202(2)->d2.
	for set, want := range map[uint64]int{208: 1, 206: 2, 204: 1, 202: 2} {
		if got := recOwner(rt, set); got != want {
			t.Fatalf("hot set %d seeded on %d, want delegate %d", set, got, want)
		}
	}
	if got := recOwner(rt, 200); got != 0 {
		t.Fatalf("cold set 200 pre-placed on %d, want untracked (static first touch)", got)
	}
	if st := rt.Stats(); st.HotSetsPlaced != 4 {
		t.Fatalf("HotSetsPlaced = %d, want 4", st.HotSetsPlaced)
	}
}

// TestRecOwnerTableGrowth: the uint64-specialized owner table keeps every
// entry findable across bucket-array growth and publish races.
func TestRecOwnerTableGrowth(t *testing.T) {
	tbl := newRecOwnerTable()
	const n = recOwnerBuckets * 4 // forces two grows
	for i := uint64(0); i < n; i++ {
		e := newRecSetEntry(int(i%4)+1, 5)
		if got := tbl.insert(i*0x10001, e); got != e {
			t.Fatalf("insert %d adopted a foreign entry", i)
		}
	}
	for i := uint64(0); i < n; i++ {
		e := tbl.lookup(i * 0x10001)
		if e == nil || e.owner.Load() != int32(i%4)+1 {
			t.Fatalf("lookup %d after growth = %v", i, e)
		}
	}
	if tbl.lookup(0xdeadbeef) != nil {
		t.Fatal("lookup of absent set returned an entry")
	}
	// Racing insert of an existing set adopts the published entry.
	if got := tbl.insert(0x10001, newRecSetEntry(9, 5)); got.owner.Load() == 9 {
		t.Fatal("duplicate insert replaced the published entry")
	}
	seen := 0
	tbl.forEach(func(uint64, *recSetEntry) { seen++ })
	if seen != n {
		t.Fatalf("forEach visited %d entries, want %d", seen, n)
	}
}

// TestRecursiveStealingOrderStress hammers the gated handoff dance with a
// delegate producer, checking per-set program order end to end across
// repeated migrations (the CI recursive-stress job runs this under -race).
func TestRecursiveStealingOrderStress(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(3, 1))
	var log0, log1 []int
	n0, n1 := 0, 0
	rt.BeginIsolation()
	for iter := 0; iter < 50; iter++ {
		release := startGated(rt, 3) // pin delegate 1 (set 0's static home)
		done := make(chan struct{})
		rt.Delegate(1, func(ctx int) { // producer on delegate 2
			for j := 0; j < 4; j++ {
				v := n0
				n0++
				rt.DelegateFrom(ctx, 0, func(int) { log0 = append(log0, v) })
			}
			close(done)
		})
		<-done
		v := n1
		n1++
		rt.Delegate(3, func(int) { log1 = append(log1, v) })
		release()
		rt.barrier()
	}
	rt.EndIsolation()
	if len(log0) != n0 || len(log1) != n1 {
		t.Fatalf("lost operations: |log0|=%d want %d, |log1|=%d want %d", len(log0), n0, len(log1), n1)
	}
	for i, v := range log0 {
		if v != i {
			t.Fatalf("set 0 order broken at %d: got %d", i, v)
		}
	}
	for i, v := range log1 {
		if v != i {
			t.Fatalf("set 3 order broken at %d: got %d", i, v)
		}
	}
	if st := rt.Stats(); st.Handoffs == 0 {
		t.Fatal("stress run never performed a recursive handoff")
	}
}

// TestRecursivePreciseOutboundVeto pins the safety half of the per-set
// outbound ledger: a set whose OWN operations delegated onward must not
// migrate while that outbound traffic is uncovered — and must migrate as
// soon as it is covered, regardless of the rest of the victim's lanes.
// Delegates=3: set 1 -> delegate 2 (the producer op), sets 0/3 -> delegate
// 1, sets 2/5 -> delegate 3.
func TestRecursivePreciseOutboundVeto(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(3, 1))
	rt.BeginIsolation()

	// Pin delegate 3 so set 0's nested delegation to set 5 stays queued.
	release3 := startGated(rt, 2)

	// Set 0's first op (produced from delegate 2) delegates to set 5 on
	// the gated delegate 3 — set 0's own outbound traffic.
	step1 := make(chan struct{})
	rt.Delegate(1, func(ctx int) {
		rt.DelegateFrom(ctx, 0, func(inner int) {
			rt.DelegateFrom(inner, 5, func(int) {})
		})
		close(step1)
	})
	<-step1
	waitLaneExec(t, rt, 1, 2, 1) // set 0's op itself has executed

	e := rt.rec.steal.owners.Load().lookup(0)
	if got := e.outPos[2].Load(); got != 1 {
		t.Fatalf("set 0 outbound ledger position for delegate 3 = %d, want 1", got)
	}

	// Loaded victim, quiescent set — but set 0's outbound is uncovered:
	// the migration must be vetoed.
	release1 := startGated(rt, 3)
	step2 := make(chan struct{})
	var routed atomic.Int64
	rt.Delegate(1, func(ctx int) {
		routed.Store(int64(rt.DelegateFrom(ctx, 0, func(int) {})))
		close(step2)
	})
	<-step2
	if got := routed.Load(); got != 1 {
		t.Fatalf("set 0 with uncovered outbound routed to %d, want vetoed on owner 1", got)
	}
	release1()
	st := rt.Stats()
	if st.Handoffs != 0 {
		t.Fatalf("Handoffs = %d, want 0 (outbound uncovered)", st.Handoffs)
	}
	if st.OutboundVetoes == 0 {
		t.Fatal("OutboundVetoes = 0 after a vetoed migration")
	}
	if st.OutboundTracked == 0 {
		t.Fatal("OutboundTracked = 0 after ledger stamps")
	}

	// Cover the outbound traffic (unpin delegate 3, let set 5's op run),
	// re-load the victim, and the same delegation must now migrate.
	release3()
	waitLaneExec(t, rt, 3, 1, 1) // set 5's op (lane: delegate 1 -> 3) executed
	waitLaneExec(t, rt, 1, 2, 2) // set 0's second op executed
	release1 = startGated(rt, 3)
	step3 := make(chan struct{})
	rt.Delegate(1, func(ctx int) {
		routed.Store(int64(rt.DelegateFrom(ctx, 0, func(int) {})))
		close(step3)
	})
	<-step3
	release1()
	rt.EndIsolation()
	if got := routed.Load(); got == 1 {
		t.Fatal("set 0 still vetoed after its outbound traffic was covered")
	}
	if got := e.outPos[2].Load(); got != 0 {
		t.Fatalf("outbound ledger not rebased at migration: outPos[2] = %d, want 0", got)
	}
	if st := rt.Stats(); st.Handoffs != 1 {
		t.Fatalf("Handoffs = %d, want 1", st.Handoffs)
	}
}

// TestAdaptiveStealRatio: the thief-eligibility ratio tracks the imbalance
// EWMA — defaultStealRatio at balance, relaxed to the floor under
// sustained skew, clamped at the ceiling for transient sub-balance EWMA
// values — and an explicit WithStealThreshold pins it.
func TestAdaptiveStealRatio(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded, Stealing: true})
	if got := rt.stealRatio(); got != defaultStealRatio {
		t.Fatalf("ratio at balance = %d, want %d", got, defaultStealRatio)
	}
	for i := 0; i < 200; i++ {
		rt.noteImbalance(256, 0)
	}
	if got := rt.stealRatio(); got != minStealRatio {
		t.Fatalf("ratio under sustained skew = %d, want floor %d", got, minStealRatio)
	}
	rt.imbalanceEWMA.Store(1) // racy-lost-update floor: must clamp, not explode
	if got := rt.stealRatio(); got != maxStealRatio {
		t.Fatalf("ratio at EWMA floor = %d, want ceiling %d", got, maxStealRatio)
	}
	pinned := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded, Stealing: true, StealThreshold: 7})
	pinned.noteImbalance(1000, 0)
	if got := pinned.stealRatio(); got != defaultStealRatio {
		t.Fatalf("explicit threshold did not pin the ratio: got %d, want %d", got, defaultStealRatio)
	}
}

// TestAdaptiveThresholdResetsAtEpoch regresses the stale-sample bug: a
// spun-down epoch's skew (sampled into the EWMA by delegates that have
// since parked) must not leak into the next epoch's effective threshold or
// ratio. BeginIsolation resets both to the configured base.
func TestAdaptiveThresholdResetsAtEpoch(t *testing.T) {
	rt := newTestRuntime(t, Config{Delegates: 2, Policy: LeastLoaded, Stealing: true})
	base := rt.cfg.StealThreshold
	for i := 0; i < 200; i++ {
		rt.noteImbalance(256, 0)
	}
	if got := rt.stealThreshold(); got != MinStealThreshold {
		t.Fatalf("threshold under sustained skew = %d, want clamp floor %d", got, MinStealThreshold)
	}
	rt.BeginIsolation()
	defer rt.EndIsolation()
	if got := rt.stealThreshold(); got != base {
		t.Fatalf("threshold after epoch reset = %d, want base %d", got, base)
	}
	if got := rt.imbalanceEWMA.Load(); got != ewmaFP {
		t.Fatalf("imbalance EWMA after epoch reset = %d, want %d (balance)", got, ewmaFP)
	}
	if got := rt.stealRatio(); got != defaultStealRatio {
		t.Fatalf("ratio after epoch reset = %d, want %d", got, defaultStealRatio)
	}
}

// TestRecursiveFirstTouchOffOwnProducer: a set whose FIRST delegation
// comes from a delegate context and whose static home is that same
// delegate must be re-homed before the push — maybeMigrate never runs on
// the first-touch path, so without the re-home the operation self-enqueues
// and a producer blocking on it (as here) deadlocks with no later
// delegation ever arriving to evacuate the set. Delegates=2: sets 100 and
// 200 both have static home delegate 1.
func TestRecursiveFirstTouchOffOwnProducer(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(2, MaxStealThreshold))
	rt.BeginIsolation()

	var routed atomic.Int64
	done := make(chan struct{})
	go func() {
		rt.Delegate(100, func(ctx int) { // runs on delegate 1
			nestedRan := make(chan struct{})
			routed.Store(int64(rt.DelegateFrom(ctx, 200, func(int) { close(nestedRan) })))
			<-nestedRan // block mid-operation on the first-touch delegation
		})
		rt.EndIsolation()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("first-touch delegation onto its producer's own delegate deadlocked")
	}
	if got := routed.Load(); got != 2 {
		t.Fatalf("first-touch set routed to %d, want re-homed to delegate 2", got)
	}
	if got := recOwner(rt, 200); got != 2 {
		t.Fatalf("owner table has set 200 on %d, want 2", got)
	}
}

// TestRecursiveReservedSetIDChecked: Checked mode rejects the engine's
// reserved pool-task sentinel id — a user set named ^uint64(0) would have
// its nested delegations silently dropped from the outbound ledger.
func TestRecursiveReservedSetIDChecked(t *testing.T) {
	cfg := recStealCfg(2, MaxStealThreshold)
	cfg.Checked = true
	rt := newTestRuntime(t, cfg)
	rt.BeginIsolation()
	defer rt.EndIsolation()
	defer func() {
		if recover() == nil {
			t.Fatal("Checked mode accepted the reserved set id ^uint64(0)")
		}
	}()
	rt.Delegate(^uint64(0), func(int) {})
}

// TestRecursiveHandoverOffOwnProducer: a producer handover that lands on
// the set's own delegate (e.g. the producing set migrated onto the delegate
// where this nested set lives) must evacuate the set — even with history —
// as soon as the safety conditions (quiescence + victim outbound lanes
// drained) hold, here on the very first delegation. A self-delegation
// placement the program didn't choose is hazardous: the producer's
// operations may block waiting on the set's, and the owner would then
// never drain its own lane.
func TestRecursiveHandoverOffOwnProducer(t *testing.T) {
	rt := newTestRuntime(t, recStealCfg(2, MaxStealThreshold)) // no occupancy steals
	rt.BeginIsolation()

	var order []int
	// Set 200 (static home delegate 1) gets history from the program.
	rt.Delegate(200, func(int) { order = append(order, 1) })
	waitLaneExec(t, rt, 1, ProgramContext, 1)

	// Handover to delegate 1's own context: the producing op (set 100,
	// static home delegate 1) delegates to set 200 from context 1.
	var routed atomic.Int64
	done := make(chan struct{})
	rt.Delegate(100, func(ctx int) {
		routed.Store(int64(rt.DelegateFrom(ctx, 200, func(int) { order = append(order, 2) })))
		close(done)
	})
	<-done
	rt.EndIsolation()

	if got := routed.Load(); got != 2 {
		t.Fatalf("handover onto own producer routed to %d, want re-homed to delegate 2", got)
	}
	if got := recOwner(rt, 200); got != 2 {
		t.Fatalf("owner table has set 200 on %d, want 2", got)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("per-set order across forced re-home = %v, want [1 2]", order)
	}
	if st := rt.Stats(); st.Handoffs != 1 {
		t.Fatalf("Handoffs = %d, want 1 (forced re-home is a migration)", st.Handoffs)
	}
}

// TestRecursiveStealResetsStaleProducerPositions regresses the
// handover -> steal -> handover shape: lastPos values recorded by FORMER
// producers are lane positions relative to the OLD owner's counters, so a
// migration must zero them. Left stale, quiescentOn compares them against
// the new owner's unrelated laneExec, the set looks non-quiescent forever
// (no further handoff can ever fire), and the next legal producer handover
// trips the Checked-mode serializer-violation panic on a correct program.
func TestRecursiveStealResetsStaleProducerPositions(t *testing.T) {
	cfg := recStealCfg(3, 1)
	cfg.Checked = true
	rt := newTestRuntime(t, cfg)
	rt.BeginIsolation()

	var order []int
	// The program produces set 0's first op (recording a position in
	// delegate 1's program lane), then hands the producer role to delegate
	// 2's context at the quiescent boundary.
	rt.Delegate(0, func(int) { order = append(order, 1) })
	waitLaneExec(t, rt, 1, ProgramContext, 1)
	step1 := make(chan struct{})
	rt.Delegate(1, func(ctx int) { // producer op runs on delegate 2
		rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 2) })
		close(step1)
	})
	<-step1
	waitLaneExec(t, rt, 1, 2, 1)

	// Steal: pin delegate 1 (set 3's static home) so it is a loaded victim,
	// then delegate to the quiescent set 0 from its current producer.
	release := startGated(rt, 3)
	var stolenTo atomic.Int64
	step2 := make(chan struct{})
	rt.Delegate(1, func(ctx int) {
		stolenTo.Store(int64(rt.DelegateFrom(ctx, 0, func(int) { order = append(order, 3) })))
		close(step2)
	})
	<-step2
	release()
	if got := stolenTo.Load(); got != 3 {
		t.Fatalf("set 0 routed to %d, want stolen to idle delegate 3", got)
	}

	// The migration must have zeroed the former producer's position — it
	// described delegate 1's lanes, which the new owner knows nothing about.
	e := rt.rec.steal.owners.Load().lookup(0)
	if pos := e.lastPos[ProgramContext].Load(); pos != 0 {
		t.Fatalf("former producer's lastPos = %d after migration, want 0", pos)
	}

	// Hand the producer role back to the program context at the new owner's
	// quiescent boundary: a legal handover Checked mode must accept (stale
	// positions would read as in-flight work here and panic).
	waitLaneExec(t, rt, 3, 2, 1)
	rt.Delegate(0, func(int) { order = append(order, 4) })
	rt.EndIsolation()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("per-set order = %v, want [1 2 3 4]", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("per-set order = %v, want [1 2 3 4]", order)
	}
}
