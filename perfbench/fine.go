package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	prometheus "repro"
)

// Sizes of the fine-grained delegation workload.
const (
	bankAccounts  = 4096
	bankOps       = 2_000_000
	bankEpochOps  = 100_000
	bankInitial   = 1000
	transferEvery = 100 // 1% of operations are two-account transfers
	sortLen       = 1 << 22
	sortCutoff    = 2048
)

// bankOp is one entry of the bank log: a delegated deposit (positive or
// negative) into account a, or, when transfer is set, a move of amt from
// a to b performed in the program context through Call.
type bankOp struct {
	a, b     uint16
	amt      int32
	transfer bool
}

func genBankLog(seed uint64) []bankOp {
	r := rand.New(rand.NewSource(subSeed(seed, 20)))
	log := make([]bankOp, bankOps)
	for i := range log {
		op := bankOp{a: uint16(r.Intn(bankAccounts)), amt: int32(r.Intn(101) - 50)}
		if r.Intn(transferEvery) == 0 {
			op.transfer = true
			op.b = uint16(r.Intn(bankAccounts))
		}
		log[i] = op
	}
	return log
}

func genSortInput(seed uint64) []int32 {
	r := rand.New(rand.NewSource(subSeed(seed, 21)))
	data := make([]int32, sortLen)
	for i := range data {
		data[i] = r.Int31()
	}
	return data
}

// bankTimes are the program-context timers of one bank run.
type bankTimes struct {
	epochs  []time.Duration // BeginIsolation to the end of EndIsolation
	barrier []time.Duration // EndIsolation alone
	reclaim []time.Duration // each transfer's two reclaiming Calls
}

// runBank replays the log on rt in isolation epochs of bankEpochOps
// operations and returns the final balances.
func runBank(rt *prometheus.Runtime, log []bankOp, t *bankTimes) []int64 {
	accts := make([]*prometheus.Writable[int64], bankAccounts)
	for i := range accts {
		accts[i] = prometheus.NewWritable(rt, int64(bankInitial))
	}
	for e := 0; e < len(log); e += bankEpochOps {
		start := time.Now()
		rt.BeginIsolation()
		for _, op := range log[e:min(e+bankEpochOps, len(log))] {
			amt := int64(op.amt)
			if !op.transfer {
				accts[op.a].Delegate(func(_ *prometheus.Ctx, x *int64) { *x += amt })
				continue
			}
			t0 := time.Now()
			accts[op.a].Call(func(x *int64) { *x -= amt })
			accts[op.b].Call(func(x *int64) { *x += amt })
			t.reclaim = append(t.reclaim, time.Since(t0))
		}
		b0 := time.Now()
		rt.EndIsolation()
		t.barrier = append(t.barrier, time.Since(b0))
		t.epochs = append(t.epochs, time.Since(start))
	}
	out := make([]int64, bankAccounts)
	for i, w := range accts {
		w.Call(func(x *int64) { out[i] = *x })
	}
	return out
}

// checkBank verifies that the total balance is conserved and that every
// account equals the sequential reference.
func checkBank(got, want []int64, log []bankOp) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d accounts, want %d", len(got), len(want))
	}
	total := int64(bankInitial) * int64(len(got))
	for _, op := range log {
		if !op.transfer {
			total += int64(op.amt)
		}
	}
	sum := int64(0)
	for _, v := range got {
		sum += v
	}
	if sum != total {
		return fmt.Errorf("total balance %d, want %d", sum, total)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("account %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// sorter is the recursive-engine quicksort: each partition step delegates
// its two halves from inside the delegate through Ctx.Delegate, each to a
// fresh serialization set.
type sorter struct{ next atomic.Uint64 }

func (s *sorter) qsort(c *prometheus.Ctx, data []int32) {
	if len(data) < sortCutoff {
		slices.Sort(data)
		return
	}
	a, b, m := data[0], data[len(data)-1], data[len(data)/2]
	pivot := max(min(a, b), min(max(a, b), m))
	lo, hi := 0, len(data)-1
	for lo <= hi {
		for data[lo] < pivot {
			lo++
		}
		for data[hi] > pivot {
			hi--
		}
		if lo <= hi {
			data[lo], data[hi] = data[hi], data[lo]
			lo++
			hi--
		}
	}
	left, right := data[:hi+1], data[lo:]
	c.Delegate(s.next.Add(1), func(c *prometheus.Ctx) { s.qsort(c, left) })
	c.Delegate(s.next.Add(1), func(c *prometheus.Ctx) { s.qsort(c, right) })
}

// runSort sorts data in place on a fresh recursive-engine runtime and
// returns the sort's wall time and the runtime's counters.
func runSort(data []int32, traced bool) (time.Duration, prometheus.Stats) {
	opts := []prometheus.Option{prometheus.Recursive()}
	if traced {
		opts = append(opts, prometheus.WithTrace())
	}
	rt := prometheus.Init(opts...)
	defer rt.Terminate()
	var s sorter
	start := time.Now()
	rt.BeginIsolation()
	root := prometheus.NewWritable(rt, data)
	root.Delegate(func(c *prometheus.Ctx, d *[]int32) { s.qsort(c, *d) })
	rt.EndIsolation()
	return time.Since(start), rt.Stats()
}

// checkSorted verifies that got equals the sorted input, which holds
// exactly when got is sorted and is a permutation of the input.
func checkSorted(got, sortedInput []int32) error {
	if len(got) != len(sortedInput) {
		return fmt.Errorf("%d elements, want %d", len(got), len(sortedInput))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		return fmt.Errorf("result not sorted")
	}
	for i := range got {
		if got[i] != sortedInput[i] {
			return fmt.Errorf("element %d = %d, want %d: not a permutation of the input", i, got[i], sortedInput[i])
		}
	}
	return nil
}

// runFine is fine-grained delegation at the library defaults: a bank log
// of single-account deposits and Call transfers on the flat engine, then
// a quicksort on the recursive engine, alternated until time is up.
func runFine(cfg runCfg, rep *report) error {
	rep.config["bank_ops"] = bankOps
	rep.config["bank_accounts"] = bankAccounts
	rep.config["bank_epoch_ops"] = bankEpochOps
	rep.config["transfer_share"] = 1.0 / transferEvery
	rep.config["sort_len"] = sortLen
	rep.config["sort_cutoff"] = sortCutoff
	rep.config["delegates"] = "default (GOMAXPROCS-1)"

	var st setupTimer
	var log []bankOp
	var input []int32
	for i := 0; i < cfg.reps(5); i++ {
		st.time(func() error {
			log = genBankLog(cfg.seed)
			input = genSortInput(cfg.seed)
			return nil
		})
	}
	rep.set("setup_s", median(st.times))

	seqRT := prometheus.Init(prometheus.Sequential())
	want := runBank(seqRT, log, &bankTimes{})
	seqRT.Terminate()
	sortedInput := slices.Clone(input)
	slices.Sort(sortedInput)
	buf := make([]int32, len(input))

	var opts []prometheus.Option
	if cfg.traced {
		opts = append(opts, prometheus.WithTrace())
	}
	var epochLat samples
	var bankWall, bankLoop float64
	var bankOpsDone int
	var bankRates, sortWalls, busy, iso, red, agg, barrier, reclaim []float64
	var bankSt, sortSt prometheus.Stats
	goStart := readGo()
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < cfg.seconds; k++ {
		rt := prometheus.Init(opts...)
		var bt bankTimes
		t0 := time.Now()
		got := runBank(rt, log, &bt)
		wall := time.Since(t0)
		bankSt = rt.Stats()
		if cfg.traced {
			busy = append(busy, busyFrac(rt.TraceEvents(), rt.ActiveDelegates(), wall.Seconds()))
		}
		rt.Terminate()
		rep.attempted += int64(len(log))
		if err := checkBank(got, want, log); err != nil {
			rep.fail("bank: %v", err)
		}
		bankRates = append(bankRates, float64(len(log))/wall.Seconds())
		bankWall += wall.Seconds()
		bankOpsDone += len(log)
		loop := wall
		for _, d := range bt.epochs {
			epochLat.addDur(d, time.Millisecond)
		}
		for _, d := range bt.barrier {
			loop -= d
			barrier = append(barrier, float64(d)/1e3)
		}
		for _, d := range bt.reclaim {
			loop -= d
			reclaim = append(reclaim, float64(d)/1e3)
		}
		bankLoop += loop.Seconds()

		copy(buf, input)
		var sw time.Duration
		sw, sortSt = runSort(buf, cfg.traced)
		epochLat.addDur(sw, time.Millisecond)
		sortWalls = append(sortWalls, sw.Seconds())
		rep.attempted++
		if err := checkSorted(buf, sortedInput); err != nil {
			rep.fail("quicksort: %v", err)
		}
		iso = append(iso, (bankSt.Isolation + sortSt.Isolation).Seconds())
		red = append(red, (bankSt.Reduction + sortSt.Reduction).Seconds())
		agg = append(agg, (bankSt.Aggregation + sortSt.Aggregation).Seconds())
	}
	goDelta := readGo().sub(goStart)

	ls := summarize(epochLat)
	rep.set("ops_per_s", median(bankRates))
	rep.set("p50_ms", ls.q(0.5))
	rep.set("p99_ms", ls.q(0.99))
	rep.latency("epoch_ms", "ms", ls)
	rep.linef("flat_ops_per_s %.6g ops/s (median of %d bank logs; %d operations in %.3f s overall)",
		median(bankRates), len(bankRates), bankOpsDone, bankWall)
	rep.latency("recursive_s", "s", summarize(sortWalls))
	rep.set("core.recursive_s", median(sortWalls))
	rep.set("core.isolation_s", median(iso))
	rep.set("core.reduction_s", median(red))
	rep.set("core.aggregation_s", median(agg))
	rep.set("core.delegate_busy_frac", median(busy))
	rep.set("core.delegate_ns", ratio(bankLoop*1e9, float64(bankOpsDone)))
	rep.set("core.barrier_us", median(barrier))
	rep.set("core.reclaim_us", median(reclaim))
	rep.set("core.drain_batch", ratio(float64(bankSt.DrainedOps), float64(bankSt.DrainBatches)))
	rep.set("core.spill_frac", ratio(float64(sortSt.Spills), float64(sortSt.RecursiveOps)))
	rep.set("core.delegations", float64(bankSt.Delegations+sortSt.Delegations))
	rep.set("core.syncs", float64(bankSt.Syncs+sortSt.Syncs))
	rep.set("core.epochs", float64(bankSt.Epochs+sortSt.Epochs))
	rep.set("core.steals", float64(bankSt.Steals+sortSt.Steals))
	rep.latency("core.barrier_us", "us", summarize(barrier))
	rep.latency("core.reclaim_us", "us", summarize(reclaim))
	goDelta.report(rep, float64(bankOpsDone+len(sortWalls)))
	rep.linef("setup_s %.4f s (median of %d input generations)", median(st.times), len(st.times))
	return nil
}
