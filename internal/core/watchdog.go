package core

import (
	"fmt"
	"strings"
	"time"
)

// Barrier watchdog. Every blocking synchronization the program context
// performs — SyncContext, barrier (EndIsolation, Sleep, RunParallel),
// Terminate — waits on a done channel only a delegate can close. Before
// fault containment a dead or wedged delegate turned that wait into a
// silent hang; with containment a wedge should be impossible, and the
// watchdog is the enforcement of that claim in debug/Checked builds: if no
// delegate publishes any progress for a full Config.Watchdog bound while a
// synchronization is outstanding, panic with a dump of per-delegate queue
// depths and ledger positions so the liveness bug arrives as an actionable
// report instead of a CI timeout.

// waitDone blocks until done closes. With the watchdog enabled it
// periodically snapshots the pool-wide progress sum; two consecutive
// identical snapshots a full bound apart with the wait still pending mean
// the runtime is wedged.
func (rt *Runtime) waitDone(done <-chan struct{}) {
	wd := rt.cfg.Watchdog
	if wd <= 0 {
		<-done
		return
	}
	timer := time.NewTimer(wd)
	defer timer.Stop()
	last := rt.progressSum()
	for {
		select {
		case <-done:
			return
		case <-timer.C:
			cur := rt.progressSum()
			if cur == last {
				panic(fmt.Sprintf(
					"prometheus: watchdog: no delegate progress for %v while a synchronization is outstanding\n%s",
					wd, rt.dumpSchedState()))
			}
			last = cur
			timer.Reset(wd)
		}
	}
}

// progressSum folds every published delegate counter into one number that
// advances whenever any delegate does anything observable: executed lane
// messages (faulted operations included — containment counts them) plus
// batched-drain deliveries.
func (rt *Runtime) progressSum() uint64 {
	sum := rt.rec.execSum()
	for _, d := range rt.rec.delegates {
		sum += d.drainedOps.Load()
	}
	return sum
}

// QueueDepths appends each delegate context's current backlog — messages
// routed to it, through any lane, that it has not finished executing
// (the one running included) — to dst and returns the extended slice, one
// entry per active delegate in context order. Reads only the published
// lane ledger, so it is safe from any goroutine and allocation-free when
// dst has capacity: a metrics scrape can sample it every time.
func (rt *Runtime) QueueDepths(dst []uint64) []uint64 {
	// Bound by the atomic active count, not capacity: reporting retired
	// delegates would skew occupancy averages, and the atomic is the only
	// pool-size read with a happens-before story for arbitrary goroutines.
	for ctx := 1; ctx <= int(rt.active.Load()); ctx++ {
		dst = append(dst, rt.recOccupancy(ctx))
	}
	return dst
}

// DumpSchedState renders the scheduler ledgers — the watchdog's wedge
// report, exported so a draining server can attach the same dump to its
// straggler log when a drain deadline expires. Empty in Sequential mode,
// which has no delegate pool.
func (rt *Runtime) DumpSchedState() string {
	if rt.cfg.Sequential {
		return ""
	}
	return rt.dumpSchedState()
}

// dumpSchedState renders the scheduler ledgers for the watchdog report:
// the pool-wide sent/executed sums, then per delegate its backlog, its
// pending-lane bitmask, and the sent/exec positions of every lane that has
// carried traffic.
func (rt *Runtime) dumpSchedState() string {
	var b strings.Builder
	rec := rt.rec
	fmt.Fprintf(&b, "lane engine: %d/%d delegates active, sent=%d executed=%d\n",
		rt.active.Load(), len(rec.delegates), rec.sentSum(), rec.execSum())
	for _, d := range rec.delegates {
		fmt.Fprintf(&b, "  delegate %d: backlog=%d pending=", d.id, rt.recOccupancy(d.id))
		for w := len(d.pending) - 1; w >= 0; w-- {
			fmt.Fprintf(&b, "%016x", d.pending[w].Load())
		}
		b.WriteString(" lanes[p:sent/exec]:")
		for p := range d.laneExec {
			sent := rec.laneSent[d.id-1][p].n.Load()
			exec := d.laneExec[p].Load()
			if sent != 0 || exec != 0 {
				fmt.Fprintf(&b, " %d:%d/%d", p, sent, exec)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
