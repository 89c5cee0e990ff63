package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// Shape of the serve-spike workload.
const (
	spikeRate      = 2000 // requests per second, open loop
	spikeKeys      = 256
	spikeSlowPerMi = 2000 // marked requests per million (0.2%)
	spikeCalmShare = 0.15 // share of the run spent in the calm phase
)

// pace releases request i at start + i·interval for every i with a due
// time before start + dur, calling send(i, due) in order. Each wake-up
// releases every request already due, so a late wake-up (the timer's
// granularity, a descheduled pacer, or a send call that blocked) never
// lowers the offered rate. Callers time each request from due, not from
// when it was released, which charges any stall to the requests it
// delayed rather than omitting them. It returns the number sent.
func pace(start time.Time, interval, dur time.Duration, send func(i int, due time.Time)) int {
	i := 0
	for {
		now := time.Now()
		for {
			off := time.Duration(i) * interval
			if off >= dur {
				return i
			}
			due := start.Add(off)
			if due.After(now) {
				time.Sleep(due.Sub(now))
				break
			}
			send(i, due)
			i++
		}
	}
}

// marked reports whether request i of the measured phase is a slow one.
func marked(seed uint64, i int) bool {
	return splitmix64(seed^0x5b1e_0000_0000+uint64(i))%1_000_000 < spikeSlowPerMi
}

// spikeResult is one in-process request's outcome.
type spikeResult struct {
	timed         // latency from the due time
	ok       bool // 2xx with a well-formed body
	measured bool // false in the calm phase
	slow     bool
	late     time.Duration // release time minus due time
}

// runSpike drives the in-memory server in-process through
// Server.Handler().ServeHTTP in an open loop: a calm phase with no marked
// requests, then the measured phase in which a seeded 0.2% of requests
// hold their delegate for 50 ms.
func runSpike(cfg runCfg, rep *report) error {
	rep.config["delegates"] = "default (GOMAXPROCS-1)"
	rep.config["epoch_interval"] = "100ms"
	rep.config["state_fs"] = "none (in memory)"
	rep.config["loop"] = "open, in-process"
	rep.config["rate"] = spikeRate
	rep.config["keys"] = spikeKeys
	rep.config["slow"] = fmt.Sprintf("%.1f%% of requests sleep %v", float64(spikeSlowPerMi)/1e4, slowDelay)
	rep.config["calm_share"] = spikeCalmShare

	var handlerLog, backendLog *spanLog
	if cfg.traced {
		handlerLog, backendLog = newSpanLog(), newSpanLog()
	}
	var st setupTimer
	var srv *serve.Server
	for i := 0; i < cfg.reps(51); i++ {
		if srv != nil {
			if err := srv.Drain(); err != nil {
				return fmt.Errorf("drain after setup: %w", err)
			}
		}
		if err := st.time(func() error {
			var err error
			srv, err = newServer(serve.Config{}, backendLog)
			return err
		}); err != nil {
			return fmt.Errorf("serve.New: %w", err)
		}
	}
	rep.set("setup_s", median(st.times))
	rep.linef("setup_s %.6f s (median of %d serve.New in memory)", median(st.times), len(st.times))

	var h http.Handler = srv.Handler()
	if cfg.traced {
		h = timedHandler{inner: h, log: handlerLog}
	}
	interval := time.Second / spikeRate
	total := time.Duration(cfg.seconds * float64(time.Second))
	calm := time.Duration(float64(total) * spikeCalmShare)
	keyX := splitmix64(cfg.seed ^ 0x5b1e)

	tracker := newSeqTracker()
	var mu sync.Mutex
	var results []spikeResult
	var wg sync.WaitGroup
	var last time.Time
	run := func(phase int, slowOK bool) (int, time.Time) {
		start := time.Now()
		dur := calm
		if slowOK {
			dur = total - calm
		}
		n := pace(start, interval, dur, func(i int, due time.Time) {
			keyX = splitmix64(keyX)
			key := int32(keyX % spikeKeys)
			slow := slowOK && marked(cfg.seed, i)
			id := uint64(phase)<<40 | uint64(i)
			req := httptest.NewRequest(http.MethodGet, "/bump?key="+spikeKey(key), nil)
			req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
			if slow {
				req.Header.Set(slowHeader, "1")
			}
			late := time.Since(due)
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				done := time.Now()
				r := spikeResult{timed: timed{id: id, lat: done.Sub(due)}, measured: slowOK, slow: slow, late: late}
				seq, ok := parseSeq(w.Body.String())
				if r.ok = ok && w.Code/100 == 2; r.ok {
					tracker.observe(-1, key, seq)
				}
				mu.Lock()
				results = append(results, r)
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}()
		})
		return n, start
	}
	run(0, false)
	if !waitTimeout(&wg, answerTimeout) {
		return fmt.Errorf("calm-phase requests unanswered %v after the last was sent", answerTimeout)
	}
	goStart := readGo()
	sent, measureStart := run(1, true)
	if !waitTimeout(&wg, answerTimeout) {
		return fmt.Errorf("requests unanswered %v after the last was sent", answerTimeout)
	}
	goDelta := readGo().sub(goStart)
	reportScrape(rep, metricsScrape(srv.Handler()))
	if err := srv.Drain(); err != nil {
		rep.fail("drain: %v", err)
	}

	var calmLat, lat, slowLat, lateS samples
	okCount := 0
	for _, r := range results {
		rep.attempted++
		if !r.ok {
			rep.failed++
			continue
		}
		switch {
		case !r.measured:
			calmLat.addDur(r.lat, time.Millisecond)
		case r.slow:
			slowLat.addDur(r.lat, time.Millisecond)
		default:
			lat.addDur(r.lat, time.Millisecond)
		}
		if r.measured {
			okCount++
			lateS.addDur(r.late, time.Millisecond)
		}
	}
	_, violations := tracker.finish()
	for _, v := range violations {
		rep.fail("%s", v)
	}
	elapsed := last.Sub(measureStart).Seconds()
	achieved := float64(okCount) / elapsed
	ls, cs, ss, gs := summarize(lat), summarize(calmLat), summarize(slowLat), summarize(lateS)
	rep.set("ops_per_s", achieved)
	rep.set("p50_ms", ls.q(0.5))
	rep.set("p99_ms", ls.q(0.99))
	rep.latency("unmarked_ms", "ms", ls)
	rep.latency("calm_ms", "ms", cs)
	rep.latency("slow_ms", "ms", ss)
	rep.latency("gen.late_ms", "ms", gs)
	rep.linef("offered %d req/s, sent %d, achieved %.6g req/s", spikeRate, sent, achieved)
	rep.set("serve.calm_p99_ms", cs.q(0.99))
	rep.set("serve.slow_p50_ms", ss.q(0.5))
	rep.set("gen.late_p50_ms", gs.q(0.5))
	rep.set("gen.late_p99_ms", gs.q(0.99))
	rep.set("gen.achieved_over_offered", achieved/spikeRate)
	goDelta.report(rep, float64(okCount))
	if cfg.traced {
		var measured []timed
		for _, r := range results {
			if r.ok && r.measured && !r.slow {
				measured = append(measured, r.timed)
			}
		}
		layerSpans(rep, measured, handlerLog, backendLog, false)
	}
	return nil
}

// waitTimeout waits for wg, up to d. It reports whether wg finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

func spikeKey(i int32) string { return fmt.Sprintf("s%03d", i) }
