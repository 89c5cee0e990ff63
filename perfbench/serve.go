package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/serve"
)

// Shape of the serve workload.
const (
	serveKeys    = 10_000
	serveHotKeys = 100
	serveHotPct  = 90
	serveWarmup  = time.Second
	// serveWindow is the slice of the measured phase over which one
	// throughput, one p50 and one p99 are taken; the reported values are
	// medians over the less stolen windows.
	serveWindow = time.Second
	// answerTimeout bounds the wait for any one answer; an unanswered
	// request counts as failed.
	answerTimeout = 10 * time.Second
)

// slowHeader marks a request the benchmark's handler answers after
// slowDelay.
const (
	slowHeader = "X-Bench-Slow"
	slowDelay  = 50 * time.Millisecond
)

// bump is the /bump counter handler of cmd/ssserve: the session's sequence
// number, incremented by the server before the handler runs, is the
// answer. Marked requests sleep first, holding their delegate.
func bump(s *serve.Session, r *http.Request) (int, string) {
	if r.Header.Get(slowHeader) == "1" {
		time.Sleep(slowDelay)
	}
	return http.StatusOK, "key=" + s.Key + " seq=" + strconv.FormatUint(s.Seq, 10) + "\n"
}

// parseSeq extracts N from a "key=K seq=N" body.
func parseSeq(body string) (uint64, bool) {
	_, v, ok := strings.Cut(strings.TrimSpace(body), " seq=")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(v, 10, 64)
	return n, err == nil
}

// seqTracker checks the serving-tier invariants as answers arrive, over
// every request a server answered since it started: per-key seq strictly
// increases on each connection, no (key, seq) pair repeats, and each key's
// seqs are exactly 1..n, so no executed request went unanswered and none
// was lost. It keeps one bit per answer. Safe for concurrent use.
type seqTracker struct {
	mu     sync.Mutex
	lastOn map[[2]int32]uint64 // (connection, key) -> last seq seen on it
	seen   map[int32][]uint64  // key -> bitset of answered seqs
	max    map[int32]uint64
	errs   []string
}

func newSeqTracker() *seqTracker {
	return &seqTracker{lastOn: map[[2]int32]uint64{}, seen: map[int32][]uint64{}, max: map[int32]uint64{}}
}

// observe records that key answered seq, on client connection conn, or on
// no connection when conn < 0.
func (t *seqTracker) observe(conn, key int32, seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq == 0 {
		t.errs = append(t.errs, fmt.Sprintf("key %d: seq 0", key))
		return
	}
	if conn >= 0 {
		ck := [2]int32{conn, key}
		if p, ok := t.lastOn[ck]; ok && seq <= p {
			t.errs = append(t.errs, fmt.Sprintf("key %d: seq %d after %d on connection %d", key, seq, p, conn))
		}
		t.lastOn[ck] = seq
	}
	bits := t.seen[key]
	for uint64(len(bits)) <= seq/64 {
		bits = append(bits, 0)
	}
	if bits[seq/64]&(1<<(seq%64)) != 0 {
		t.errs = append(t.errs, fmt.Sprintf("key %d: seq %d answered twice", key, seq))
	}
	bits[seq/64] |= 1 << (seq % 64)
	t.seen[key] = bits
	t.max[key] = max(t.max[key], seq)
}

// finish returns each key's last acknowledged seq and one message per
// violation, including every key whose seqs have a gap.
func (t *seqTracker) finish() (last map[int32]uint64, errs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	errs = append([]string(nil), t.errs...)
	for key, top := range t.max {
		bits := t.seen[key]
		for s := uint64(1); s < top; s++ {
			if bits[s/64]&(1<<(s%64)) == 0 {
				errs = append(errs, fmt.Sprintf("key %d: seq %d answered but %d never was: an update was lost", key, top, s))
				break
			}
		}
	}
	return maps.Clone(t.max), errs
}

// recoveredSeqs reads a drained server's state directory the way a
// restart would and returns each session key's recovered seq. Records
// apply monotonically per set, snapshot first, then journals.
func recoveredSeqs(dir string) (map[string]uint64, error) {
	fs, err := durable.NewDirFS(dir)
	if err != nil {
		return nil, err
	}
	rec, err := durable.NewStore(fs).Recover()
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	type sess struct {
		key string
		seq uint64
	}
	bySet := map[uint64]sess{}
	for _, r := range append(append([][]byte(nil), rec.SnapshotRecords...), rec.JournalRecords...) {
		if len(r) < 20 {
			return nil, fmt.Errorf("short session record (%d bytes)", len(r))
		}
		set := binary.LittleEndian.Uint64(r)
		seq := binary.LittleEndian.Uint64(r[8:])
		n := int(binary.LittleEndian.Uint32(r[16:]))
		if len(r) < 20+n {
			return nil, fmt.Errorf("truncated session record")
		}
		if cur, ok := bySet[set]; !ok || seq >= cur.seq {
			bySet[set] = sess{key: string(r[20 : 20+n]), seq: seq}
		}
	}
	out := make(map[string]uint64, len(bySet))
	for _, s := range bySet {
		out[s.key] = s.seq
	}
	return out, nil
}

func serveKey(i int32) string { return fmt.Sprintf("k%05d", i) }

// keyStream draws the serve workload's keys: serveHotPct percent of
// requests go to serveHotKeys hot keys, the rest to the other keys.
type keyStream struct{ x uint64 }

func (k *keyStream) next() int32 {
	k.x = splitmix64(k.x)
	if k.x%100 < serveHotPct {
		return int32((k.x >> 8) % serveHotKeys)
	}
	return serveHotKeys + int32((k.x>>8)%(serveKeys-serveHotKeys))
}

// metricsScrape reads counters from the server's /metrics exposition.
func metricsScrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[name] = f
		}
	}
	return out
}

func reportScrape(rep *report, m map[string]float64) {
	rep.set("serve.epochs", m["ss_runtime_epochs_total"])
	rep.set("serve.steals", m["ss_runtime_steals_total"])
	rep.set("serve.rejects", m["ss_admission_rejects_total"]+m["ss_ratelimit_rejects_total"]+m["ss_poisoned_rejects_total"])
	rep.set("durable.snapshot_skipped", m["ss_snapshot_skipped_total"])
}

// timed is one answered request as the client timed it, kept in traced
// runs to be joined with the spans the server side recorded for its id.
type timed struct {
	id  uint64
	lat time.Duration
}

// layerSpans joins the client's view of each request with the handler and
// backend spans recorded for it and reports the serve and http layers.
func layerSpans(rep *report, reqs []timed, handler, backend *spanLog, clientIsHTTP bool) {
	var client, hop, hd, be, queue samples
	for _, a := range reqs {
		h, okH := handler.get(a.id)
		b, okB := backend.get(a.id)
		if !okH || !okB {
			continue
		}
		client.addDur(a.lat, time.Microsecond)
		hop.addDur(a.lat-h, time.Microsecond)
		hd.addDur(h, time.Microsecond)
		be.addDur(b, time.Microsecond)
		queue.addDur(h-b, time.Microsecond)
	}
	cs, hs, hds, bs, qs := summarize(client), summarize(hop), summarize(hd), summarize(be), summarize(queue)
	rep.set("serve.handler_p50_us", hds.q(0.5))
	rep.set("serve.handler_p99_us", hds.q(0.99))
	rep.set("serve.backend_p50_us", bs.q(0.5))
	rep.set("serve.backend_p99_us", bs.q(0.99))
	rep.set("serve.queue_p50_us", qs.q(0.5))
	rep.set("serve.queue_p99_us", qs.q(0.99))
	rep.latency("client_us", "us", cs)
	rep.latency("serve.handler_us", "us", hds)
	rep.latency("serve.backend_us", "us", bs)
	rep.latency("serve.queue_us", "us", qs)
	if clientIsHTTP {
		rep.set("http.hop_p50_us", hs.q(0.5))
		rep.set("http.hop_p99_us", hs.q(0.99))
		rep.latency("http.hop_us", "us", hs)
		rep.linef("reconcile: client p50 %.1f us vs http.hop p50 + serve.handler p50 = %.1f us (%+.1f%%)",
			cs.q(0.5), hs.q(0.5)+hds.q(0.5), 100*ratio(hs.q(0.5)+hds.q(0.5)-cs.q(0.5), cs.q(0.5)))
	}
	rep.linef("reconcile: serve.handler p50 %.1f us vs serve.queue p50 + serve.backend p50 = %.1f us (%+.1f%%)",
		hds.q(0.5), qs.q(0.5)+bs.q(0.5), 100*ratio(qs.q(0.5)+bs.q(0.5)-hds.q(0.5), hds.q(0.5)))
}

// newServer builds a server whose backend is bump, timed when traced.
func newServer(cfg serve.Config, backend *spanLog) (*serve.Server, error) {
	var b serve.Backend = serve.NewHandlerBackend("bump", bump)
	if backend != nil {
		b = timedBackend{inner: b, log: backend}
	}
	cfg.Backend = b
	return serve.New(cfg)
}

// runServe drives serve.New over loopback HTTP/1.1 in a closed loop from
// 8·nproc keep-alive connections, with durable sessions on a state
// directory under fsync=rotation. With nproc or 4·nproc connections the
// p99 sat on the knee between the undisturbed requests and those caught by
// a few-millisecond stall (a rotation, a GC cycle, a scheduler tick), and
// moved between 0.24 and 4.3 ms with the host's speed; with 8·nproc every
// stall catches enough requests to hold the p99 near 4.1–4.8 ms.
//
// The measured phase is cut into serveWindow windows. ops_per_s, p50_ms
// and p99_ms are medians over the windows in which the hypervisor stole at
// most the median window's share of CPU time (all of them when steal is
// even), and ops_per_s counts each window's requests per second of CPU
// time not stolen. On a shared host the steal moved between 0 and 35% from run to run, and the
// raw throughput and p99 with it; the raw figures are printed beside.
func runServe(cfg runCfg, rep *report) error {
	conns := 8 * runtime.NumCPU()
	rep.config["delegates"] = "default (GOMAXPROCS-1)"
	rep.config["epoch_interval"] = "100ms"
	rep.config["fsync"] = "rotation"
	rep.config["state_fs"] = "DirFS"
	rep.config["loop"] = "closed"
	rep.config["connections"] = conns
	rep.config["keys"] = serveKeys
	rep.config["hot"] = fmt.Sprintf("%d%% of requests to %d keys", serveHotPct, serveHotKeys)
	rep.config["warmup"] = serveWarmup.String()
	rep.config["window"] = serveWindow.String()

	var handlerLog, backendLog *spanLog
	var tfs *timedFS
	if cfg.traced {
		handlerLog, backendLog = newSpanLog(), newSpanLog()
	}
	var st setupTimer
	var srv *serve.Server
	var dir string
	for i := 0; i < cfg.reps(21); i++ {
		if srv != nil {
			if err := srv.Drain(); err != nil {
				return fmt.Errorf("drain after setup: %w", err)
			}
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = os.MkdirTemp(cfg.tmp, "state-"); err != nil {
			return err
		}
		err = st.time(func() error {
			fs, err := durable.NewDirFS(dir)
			if err != nil {
				return err
			}
			var sfs durable.FS = fs
			if cfg.traced {
				tfs = newTimedFS(fs)
				sfs = tfs
			}
			srv, err = newServer(serve.Config{StateFS: sfs, Fsync: durable.FsyncRotation}, backendLog)
			return err
		})
		if err != nil {
			return fmt.Errorf("serve.New: %w", err)
		}
	}
	rep.set("setup_s", median(st.times))
	rep.linef("setup_s %.6f s (median of %d serve.New with empty-dir recovery and boot snapshot)", median(st.times), len(st.times))

	var h http.Handler = srv.Handler()
	if cfg.traced {
		h = timedHandler{inner: h, log: handlerLog}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	tracker := newSeqTracker()
	per := make([]connResult, conns)
	begin := time.Now()
	measureFrom := begin.Add(serveWarmup)
	stop := measureFrom.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = closedLoop(ln.Addr().String(), c, cfg.seed, measureFrom, stop, tracker, cfg.traced)
		}(c)
	}
	nWin := max(1, int(cfg.seconds*float64(time.Second)/float64(serveWindow)))
	time.Sleep(time.Until(measureFrom))
	goStart := readGo()
	cpuStart := readCPUTicks()
	// One steal share per window, read at the window boundaries; the
	// sampler has filled all nWin when it closes sampled.
	winSteal := make([]float64, 0, nWin)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		prev := cpuStart
		for k := 1; k <= nWin; k++ {
			time.Sleep(time.Until(measureFrom.Add(time.Duration(k) * serveWindow)))
			cur := readCPUTicks()
			winSteal = append(winSteal, cur.stealFrac(prev))
			prev = cur
		}
	}()
	wg.Wait()
	<-sampled
	goDelta := readGo().sub(goStart)
	steal := readCPUTicks().stealFrac(cpuStart)
	measured := time.Since(measureFrom)

	scrape := metricsScrape(srv.Handler())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		return fmt.Errorf("http serve: %w", err)
	}
	if err := srv.Drain(); err != nil {
		rep.fail("drain: %v", err)
	}

	var reqs []timed
	total, most := 0, 0
	for c, r := range per {
		if r.err != nil {
			rep.fail("connection %d: %v", c, r.err)
		}
		rep.attempted += r.attempted
		rep.failed += r.failed
		reqs = append(reqs, r.timed...)
		for _, w := range r.wins {
			total += len(w)
		}
		most = max(most, len(r.wins))
	}
	// Merge the connections window by window into one slice, so each
	// window is a sub-slice of the whole run and the samples, which are
	// most of the client's memory, are not held twice.
	lat := make(samples, 0, total)
	wins := make([]samples, nWin)
	for i := 0; i < most; i++ {
		start := len(lat)
		for c := range per {
			if i < len(per[c].wins) {
				lat = append(lat, per[c].wins[i]...)
				per[c].wins[i] = nil
			}
		}
		if i < nWin {
			wins[i] = lat[start:len(lat):len(lat)]
		}
	}
	okCount := len(lat)
	last, violations := tracker.finish()
	for _, v := range violations {
		rep.fail("%s", v)
	}
	recovered, err := recoveredSeqs(dir)
	if err != nil {
		rep.fail("recovery: %v", err)
	}
	for key, seq := range last {
		if got := recovered[serveKey(key)]; got != seq {
			rep.fail("key %s recovered seq %d, last acknowledged %d", serveKey(key), got, seq)
		}
	}

	ls := summarize(lat)
	var wRate, wP50, wP99, qRate, qP50, qP99 []float64
	for i, w := range wins {
		ws := summarize(w)
		wRate = append(wRate, float64(ws.n())/serveWindow.Seconds())
		wP50 = append(wP50, ws.q(0.5)/1000)
		wP99 = append(wP99, ws.q(0.99)/1000)
		if quiet(winSteal, i) {
			qRate = append(qRate, wRate[i]/(1-winSteal[i]))
			qP50 = append(qP50, wP50[i])
			qP99 = append(qP99, wP99[i])
		}
	}
	rep.set("ops_per_s", median(qRate))
	rep.set("p50_ms", median(qP50))
	rep.set("p99_ms", median(qP99))
	rep.linef("windows: %d of %v, medians over the %d with steal at most the median window's; steal %.3f over the run", len(wins), serveWindow, len(qRate), steal)
	rep.linef("window ops_per_s: %s", fmtList(wRate, "%.0f"))
	rep.linef("window p99_ms: %s", fmtList(wP99, "%.3f"))
	rep.linef("window steal: %s", fmtList(winSteal, "%.3f"))
	rep.latency("latency_us", "us", ls)
	rep.linef("rps %.6g req/s (%d 2xx in %.3f s after %v warm-up)", float64(okCount)/measured.Seconds(), okCount, measured.Seconds(), serveWarmup)
	rep.linef("recovery: %d keys acknowledged, %d recovered after Drain", len(last), len(recovered))
	reportScrape(rep, scrape)
	goDelta.report(rep, float64(okCount))
	if cfg.traced {
		layerSpans(rep, reqs, handlerLog, backendLog, true)
		fst := tfs.stats()
		as, ss, sn, sb := summarize(fst.appends), summarize(fst.syncs), summarize(fst.snapshots), summarize(fst.snapBytes)
		rep.set("durable.append_p50_us", as.q(0.5))
		rep.set("durable.append_p99_us", as.q(0.99))
		rep.set("durable.appends_per_req", ratio(float64(as.n()), float64(rep.attempted)))
		rep.set("durable.sync_p50_ms", ss.q(0.5))
		rep.set("durable.syncs", float64(ss.n()))
		rep.set("durable.snapshot_ms", sn.q(0.5))
		rep.set("durable.snapshot_bytes", sb.q(0.5))
		rep.latency("durable.append_us", "us", as)
		rep.latency("durable.sync_ms", "ms", ss)
		rep.latency("durable.snapshot_ms", "ms", sn)
	}
	return nil
}

// connResult is what one client connection saw.
type connResult struct {
	wins      []samples // 2xx latencies of the measured phase, µs, by serveWindow of their send time
	timed     []timed   // the same requests with their ids, traced runs only
	attempted int64
	failed    int64
	err       error
}

// closedLoop runs one keep-alive connection: send a request, read the
// answer, repeat until stop. Every answer goes to the tracker; requests
// sent from measureFrom on are measured.
func closedLoop(addr string, conn int, seed uint64, measureFrom, stop time.Time, tr *seqTracker, traced bool) (r connResult) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		r.err = err
		return r
	}
	defer c.Close()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	keys := keyStream{x: splitmix64(seed*1000 + uint64(conn))}
	for i := uint64(0); ; i++ {
		now := time.Now()
		if !now.Before(stop) {
			return r
		}
		key := keys.next()
		id := uint64(conn)<<40 | i
		r.attempted++
		// A request the server never answers fails the connection
		// instead of hanging the run.
		if r.err = c.SetDeadline(now.Add(answerTimeout)); r.err != nil {
			r.failed++
			return r
		}
		fmt.Fprintf(bw, "GET /bump?key=%s HTTP/1.1\r\nHost: bench\r\n%s: %d\r\n\r\n", serveKey(key), reqIDHeader, id)
		if r.err = bw.Flush(); r.err != nil {
			r.failed++
			return r
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			r.err = err
			r.failed++
			return r
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(now)
		seq, ok := parseSeq(string(body))
		if err != nil || !ok || resp.StatusCode/100 != 2 {
			r.failed++
			if err != nil {
				r.err = err
				return r
			}
			continue
		}
		tr.observe(int32(conn), key, seq)
		if now.Before(measureFrom) {
			continue
		}
		w := int(now.Sub(measureFrom) / serveWindow)
		for len(r.wins) <= w {
			r.wins = append(r.wins, nil)
		}
		r.wins[w].addDur(lat, time.Microsecond)
		if traced {
			r.timed = append(r.timed, timed{id: id, lat: lat})
		}
	}
}
