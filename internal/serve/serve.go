// Package serve is the serving tier: serialization sets as a
// session-affinity request router. Every request carries a key (user id,
// session, tenant); the key hashes to a serialization set; the requests of
// one set run one at a time, in the order the router delivered them —
// per-key causal order with no per-session locks — while requests for
// different keys run concurrently. A request that panics is contained: its
// key is poisoned for the rest of the epoch (those requests fail fast with
// the fault attached) and every other key keeps serving.
//
// Each request runs on its own handler goroutine. The router goroutine is
// the per-key sequencer: it links every job onto its session's turn chain,
// whose link is the completion signal of the key's newest granted attempt,
// and grants the job back to its goroutine. That goroutine waits for its
// predecessor's signal, runs the backend, and releases the turn:
//
//	handler goroutine                  router
//	  admission / rate gates
//	  jobs <- job ───────────────────▶ link: job.prev = sess.tail
//	                                         sess.tail = job.turn
//	  <-job.grant ◀────────────────────── grant
//	  <-job.prev (the key's previous attempt)
//	  backend, watchdog, journal
//	  close(job.turn) ──▶ the key's next request may run
//
// A slow request therefore delays only its own key's later requests: the
// router never waits for a request, and requests for other keys do not
// queue behind it. The turn hand-off is one channel close, which also carries the
// happens-before edge from one request's session writes to the next.
//
// Epochs rotate on a timer. Rotation is the serving tier's repair loop: it
// swaps in an empty poison table so a faulted key starts serving again,
// the slow-key watchdog heals, the rate limiter evicts idle buckets, and
// durable sessions take their snapshot (durability.go). Rotation waits for
// no request: a request's epoch is the one it was delivered in, and the
// durable cut reads the post-state records requests store, not the
// sessions they are mutating.
//
// Between the router and the work it runs sits the robustness layer
// (backend.go, breaker.go, deadline.go): a pluggable Backend interface
// (in-process handlers, HTTP upstream proxies, chaos wrappers) optionally
// gated per backend by a circuit breaker behind a rotation Pool;
// per-request deadlines fixed at admission and enforced wherever the tier
// holds the request (delivery, waiting for the key's turn, the backend
// context) — an expired request resolves to a definitive 504; retry with
// capped jittered backoff for idempotent requests, relinked by the router
// at the key's chain tail so per-key order holds across attempts; and a
// slow-key watchdog that degrades a persistently-slow key to 503 sheds.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	prometheus "repro"
	"repro/internal/durable"
)

// Session is the per-key state a handler mutates. Only the request that
// holds the key's turn touches it, so handlers never lock it: per-key turn
// order is the mutual exclusion, and the turn hand-off carries the
// happens-before edge between requests.
type Session struct {
	Key string // the request key this session serves
	Set uint64 // the serialization set the key hashed to
	Seq uint64 // requests executed on this session (incremented before the handler runs)

	// Data is scratch state for handlers (a tiny per-key KV).
	Data map[string]string

	// tail is the turn of the key's newest granted attempt; the next
	// attempt the router links waits for it. Router only.
	tail chan struct{}
	// rec is the encoded post-state of the session's latest executed
	// request, stored under the durability read lock and read by the
	// rotation capture (see durability.go). Nil without Config.StateFS.
	rec []byte
}

// Handler executes one request against its key's session, on the
// request's own goroutine while it holds the key's turn. It must not
// retain s or r beyond the call and may panic: the panic is recovered,
// fails this request with the fault attached, and poisons the key for the
// rest of the epoch while every other key keeps serving. When
// Config.RequestTimeout is set, r.Context() carries the request's
// deadline; a cooperative handler bounds its own work with it (an
// uncooperative one delays only its own key: the requests waiting behind
// it expire on their own deadlines, and the slow-key watchdog sheds the
// key — see deadline.go).
type Handler func(s *Session, r *http.Request) (status int, body string)

// Config parameterizes a Server.
type Config struct {
	// Shards sets the latency-metric shard count: a key's set is metered
	// under shard set%Shards, bounding metric cardinality under unbounded
	// keys. Default 8.
	Shards int
	// MaxInflight is the admission budget: requests admitted past the
	// gates and not yet answered. Above it requests are rejected with 503
	// before touching the router. Default 1024.
	MaxInflight int
	// QueueDepth bounds the handler→router jobs channel; a full channel
	// rejects with 503 (backpressure, never unbounded buffering).
	// Default MaxInflight.
	QueueDepth int
	// Rate and Burst configure the per-set token bucket, in
	// requests/second and requests. Rate 0 disables rate limiting.
	Rate  float64
	Burst float64
	// EpochInterval is the rotation period — the poison-repair, watchdog
	// heal and snapshot cadence. Default 100ms.
	EpochInterval time.Duration
	// DrainTimeout bounds Drain's quiet wait: how long to wait for
	// inflight requests before logging a straggler report. Default 5s.
	DrainTimeout time.Duration
	// RequestTimeout is the per-request budget, fixed at admission. A
	// request whose budget expires before its backend can run resolves to a
	// definitive 504 (at delivery or while waiting for its key's turn —
	// see deadline.go); a backend running when it expires sees the
	// deadline on its context. 0 disables deadlines.
	RequestTimeout time.Duration
	// RetryMax caps retry attempts for idempotent requests after backend
	// failures (0 = no retries). Retries re-enter the router and are
	// relinked at the key's chain tail, preserving per-key order across
	// attempts.
	RetryMax int
	// RetryBase and RetryCap shape the capped exponential backoff between
	// attempts (base doubles per attempt, jittered ±50%, capped). Defaults
	// 2ms and 250ms.
	RetryBase time.Duration
	RetryCap  time.Duration
	// IdempotentFunc reports whether a request is safe to retry. Default:
	// GET/HEAD/OPTIONS, or any method carrying an Idempotency-Key header.
	IdempotentFunc func(r *http.Request) bool
	// SlowThreshold arms the slow-key watchdog: a key whose backend
	// services exceed it on SlowTrips consecutive requests is degraded —
	// shed with 503 at delivery — until an epoch rotation heals it. 0
	// disables the watchdog.
	SlowThreshold time.Duration
	// SlowTrips is the consecutive-slow-service count that degrades a key.
	// Default 3.
	SlowTrips int
	// Backend executes requests. Exactly one of Backend and Handler must
	// be set (Handler is shorthand for an in-process HandlerBackend); use
	// NewPool to gate several backends behind per-backend circuit
	// breakers.
	Backend Backend
	// Handler executes requests in-process; shorthand for
	// Backend: NewHandlerBackend("inprocess", Handler).
	Handler Handler
	// StateFS, when set, enables durable sessions: the session table is
	// snapshotted at every epoch rotation (write-behind, from the
	// post-state records executed requests store), journaled between
	// rotations, and rebuilt from storage at the next New before admission
	// opens. Use durable.NewDirFS for a real state directory,
	// durable.NewMemFS in tests, chaos.WrapFS for fault drills. Nil
	// disables durability (sessions die with the process).
	StateFS durable.FS
	// Fsync is the journal's durability policy (see durable.FsyncPolicy):
	// FsyncOff buffers, FsyncRotation syncs once per epoch rotation
	// (bounding acked loss at one epoch), FsyncAlways syncs every append
	// (an acknowledged request is durable). Ignored without StateFS.
	Fsync durable.FsyncPolicy
	// NoJournal disables the intra-epoch journal: durability comes from
	// rotation snapshots alone, bounding loss at one epoch plus commit
	// latency regardless of Fsync. Ignored without StateFS.
	NoJournal bool
	// KeyFunc extracts the request key. Default: header "X-Session-Key",
	// else query parameter "key", else the client address.
	KeyFunc func(r *http.Request) string
	// Logf receives drain and straggler reports. Default: discard.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() error {
	if c.Handler == nil && c.Backend == nil {
		return fmt.Errorf("serve: one of Config.Handler and Config.Backend is required")
	}
	if c.Handler != nil && c.Backend != nil {
		return fmt.Errorf("serve: Config.Handler and Config.Backend are mutually exclusive")
	}
	if c.Backend == nil {
		c.Backend = NewHandlerBackend("inprocess", c.Handler)
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 250 * time.Millisecond
	}
	if c.IdempotentFunc == nil {
		c.IdempotentFunc = defaultIdempotent
	}
	if c.SlowTrips <= 0 {
		c.SlowTrips = 3
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.MaxInflight
	}
	if c.EpochInterval <= 0 {
		c.EpochInterval = 100 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.KeyFunc == nil {
		c.KeyFunc = defaultKey
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

func defaultKey(r *http.Request) string {
	if k := r.Header.Get("X-Session-Key"); k != "" {
		return k
	}
	if k := r.URL.Query().Get("key"); k != "" {
		return k
	}
	return r.RemoteAddr
}

// Job outcomes. A job is resolved once per request, by exactly one side:
// the router's delivery fast paths (expired, poisoned, degraded) before it
// grants the job, or the request goroutine after the grant.
const (
	outcomePending uint32 = iota
	outcomeServed         // backend produced a definitive answer (status/body are valid, including 502 on a non-retryable backend failure)
	outcomeFaulted        // handler panicked; fault recovered, key poisoned
	outcomeDropped        // key poisoned before the request could run (delivery fast path or behind the fault in the chain)
	outcomeExpired        // request budget expired before the backend could answer (504)
	outcomeShed           // slow-key watchdog degraded the key (503)
)

type job struct {
	key      string
	set      uint64
	r        *http.Request
	start    time.Time
	deadline time.Time // zero = no budget (Config.RequestTimeout off)

	// grant carries one token per delivery from the router to the request
	// goroutine. Before sending it the router either resolved the job
	// (outcome set) or linked the attempt into the key's turn chain (sess,
	// prev, turn and poison set).
	grant  chan struct{}
	sess   *Session
	prev   chan struct{} // turn of the key's previous attempt; nil = none
	turn   chan struct{} // closed when this attempt releases the key
	poison *poisonTable  // the delivery epoch's fault table

	outcome uint32
	status  int
	body    string
	fault   error // the fault a faulted or dropped job reports

	// attempt counts backend attempts already made (request goroutine).
	attempt int
}

// poisonTable is one epoch's record of faulted keys: the fault (value and
// stack) per set. Rotation replaces the whole table, and each job keeps
// the table of the epoch it was delivered in, so a request chained behind
// a fault is dropped even when a rotation lands while it waits.
type poisonTable struct {
	epoch uint64
	n     atomic.Int32 // entries: the fault-free lookup is one atomic load
	mu    sync.Mutex
	m     map[uint64]error
}

// fault returns the fault that poisoned set in this epoch, or nil.
func (p *poisonTable) fault(set uint64) error {
	if p.n.Load() == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[set]
}

// add poisons set with err; the key's first fault of the epoch is kept.
func (p *poisonTable) add(set uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = make(map[uint64]error)
	}
	if _, ok := p.m[set]; !ok {
		p.m[set] = err
		p.n.Add(1)
	}
}

// Server is the serving tier instance. Create with New, expose Handler()
// on an http.Server, stop with Drain.
type Server struct {
	cfg     Config
	metrics *metrics
	limiter *limiter
	slow    *slowTable // nil unless Config.SlowThreshold set

	jobs     chan *job
	inflight atomic.Int64
	draining atomic.Bool

	// poison is the current epoch's fault table; rotation swaps in an empty
	// one. epochs counts the epochs begun.
	poison atomic.Pointer[poisonTable]
	epochs atomic.Uint64

	sessions map[uint64]*Session // router only (then drain)

	// Durability (see durability.go; all nil/zero without Config.StateFS).
	store      *durable.Store
	cut        sync.RWMutex     // executed requests store post-state under R; the rotation capture takes W
	journal    *durable.Journal // guarded by cut
	snapGen    uint64           // generation counter (router, then drain)
	dirty      atomic.Bool      // a request executed since the last capture
	snapCh     chan snapCapture // router → write-behind committer, capacity 1
	writerDone chan struct{}
	recovered  recoveryInfo // frozen before the router starts

	drainCh  chan chan struct{}
	routerWG chan struct{}
	killCh   chan struct{} // test hook: abrupt router death, no drain, no flush
}

// New validates cfg, recovers durable state when configured, and starts
// the router; the server is accepting work when it returns.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(cfg.Shards),
		jobs:     make(chan *job, cfg.QueueDepth),
		sessions: make(map[uint64]*Session),
		drainCh:  make(chan chan struct{}),
		routerWG: make(chan struct{}),
		killCh:   make(chan struct{}),
	}
	s.epochs.Store(1)
	s.poison.Store(&poisonTable{epoch: 1})
	if cfg.Rate > 0 {
		s.limiter = newLimiter(cfg.Rate, cfg.Burst)
	}
	if cfg.SlowThreshold > 0 {
		s.slow = newSlowTable(cfg.SlowThreshold, cfg.SlowTrips)
	}
	if cfg.StateFS != nil {
		// Recovery runs here, before the router exists: the session table
		// must be rebuilt before the first request can be admitted, and a
		// state store that cannot take a boot snapshot refuses to start.
		if err := s.initDurability(); err != nil {
			return nil, err
		}
	}
	go s.router()
	return s, nil
}

// router is the per-key sequencer: it links jobs into their keys' turn
// chains, rotates epochs on a timer, and performs the final drain. It is
// the only goroutine that touches the session table and the chain tails.
func (s *Server) router() {
	defer close(s.routerWG)
	tick := time.NewTicker(s.cfg.EpochInterval)
	defer tick.Stop()
	for {
		select {
		case j := <-s.jobs:
			s.deliver(j)
		case <-tick.C:
			s.rotate()
		case ack := <-s.drainCh:
			s.drainRouter()
			close(ack)
			return
		case <-s.killCh:
			// Test hook: die the way a SIGKILL would — no drain, no final
			// snapshot, no journal flush. What the durability layer already
			// pushed to its FS is all a successor recovers; the journal's
			// user-space buffer dies with us.
			return
		}
	}
}

// kill abruptly stops the router for crash-recovery tests. Unlike Drain it
// resolves nothing: inflight requests park forever and buffered journal
// bytes are lost. Call only from tests, at a quiescent point.
func (s *Server) kill() {
	close(s.killCh)
	<-s.routerWG
}

// deliver routes one job — a fresh arrival or a retry re-entry — and
// grants it back to its request goroutine: resolved by a fast path
// (expired, poisoned, degraded), or linked at the tail of its key's turn
// chain. Router only.
func (s *Server) deliver(j *job) {
	poison := s.poison.Load()
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		// The budget expired while the job sat in the channel (or while a
		// retry backoff ran): resolve the 504 without linking it.
		j.outcome = outcomeExpired
		s.metrics.expired.Add(1)
	} else if j.fault = poison.fault(j.set); j.fault != nil {
		// The key faulted earlier this epoch: fail the job now instead of
		// linking it just to drop it at its turn.
		j.outcome = outcomeDropped
		s.metrics.droppedJobs.Add(1)
	} else if s.slow != nil && s.slow.degraded(j.set) {
		// The watchdog degraded this key: shed instead of queueing behind
		// work that would blow the budget anyway.
		j.outcome = outcomeShed
		s.metrics.shedDegraded.Add(1)
	} else {
		sess := s.sessions[j.set]
		if sess == nil {
			sess = &Session{Key: j.key, Set: j.set, Data: make(map[string]string)}
			s.sessions[j.set] = sess
		}
		turn := make(chan struct{})
		j.sess, j.prev, j.turn, j.poison = sess, sess.tail, turn, poison
		sess.tail = turn
	}
	j.grant <- struct{}{}
}

// await is the request goroutine's side of delivery: wait for the
// router's grant, take the key's turn, and go round again for each retry.
// It returns once the job has an outcome.
func (s *Server) await(j *job) {
	for {
		<-j.grant
		if j.outcome != outcomePending {
			return
		}
		backoff, retry := s.takeTurn(j)
		if !retry {
			return
		}
		// The turn is already released, so the key's later requests run
		// during the backoff; the retry then re-enters the router and is
		// relinked at the chain tail, which keeps per-key order across
		// attempts.
		time.Sleep(backoff)
		s.jobs <- j
	}
}

// takeTurn waits for the key's previous attempt, runs this attempt, and
// releases the turn. It reports the backoff of a retry it armed.
func (s *Server) takeTurn(j *job) (backoff time.Duration, retry bool) {
	if !s.waitTurn(j) {
		return 0, false
	}
	defer close(j.turn)
	if fault := j.poison.fault(j.set); fault != nil {
		// An earlier request for this key faulted in the epoch this job was
		// delivered in: drop it with the fault, as the fast paths do.
		j.outcome, j.fault = outcomeDropped, fault
		s.metrics.droppedJobs.Add(1)
		return 0, false
	}
	return s.execute(j)
}

// waitTurn blocks until the key's previous attempt releases its turn. A
// job whose deadline passes first resolves 504 without running and
// reports false; its own turn is handed on only once the predecessor
// completes, so two attempts for one key never overlap.
func (s *Server) waitTurn(j *job) bool {
	prev := j.prev
	if prev == nil {
		return true
	}
	select {
	case <-prev:
		return true
	default:
	}
	if j.deadline.IsZero() {
		<-prev
		return true
	}
	t := time.NewTimer(time.Until(j.deadline))
	defer t.Stop()
	select {
	case <-prev:
		return true
	case <-t.C:
	}
	j.outcome = outcomeExpired
	s.metrics.expired.Add(1)
	turn := j.turn
	go func() {
		<-prev
		close(turn)
	}()
	return false
}

// execute runs one backend attempt while the job holds its key's turn. It
// resolves the job — served (any definitive status, including a 502/503
// rendered from a non-retryable backend failure), expired (the budget was
// gone before the backend ran, or died inside it), or faulted (the
// handler panicked: the fault is recorded in the delivery epoch's poison
// table before the turn is released, so every request behind it drops) —
// or arms a retry and reports its backoff.
func (s *Server) execute(j *job) (time.Duration, bool) {
	start := time.Now()
	if !j.deadline.IsZero() && start.After(j.deadline) {
		// The key's earlier work consumed this request's budget before its
		// turn came: resolve 504 without running the backend.
		j.outcome = outcomeExpired
		s.metrics.expired.Add(1)
		return 0, false
	}
	ctx := context.Background()
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
		defer cancel()
	}
	sess := j.sess
	sess.Seq++
	status, body, err, fault := s.callBackend(ctx, j)
	if fault != nil {
		// A faulted request contributes no durable state and no watchdog
		// sample.
		j.poison.add(j.set, fault)
		s.metrics.panics.Add(1)
		j.outcome, j.fault = outcomeFaulted, fault
		return 0, false
	}
	elapsed := time.Since(start)
	if s.slow != nil && s.slow.observe(j.set, elapsed) {
		s.metrics.degradedKeys.Add(1)
	}
	if s.store != nil {
		// Persist the session's post-state before the request can resolve:
		// under FsyncAlways the record is durable before the ack goes out.
		s.persist(sess)
	}
	if err == nil {
		j.status, j.body = status, body
		j.outcome = outcomeServed
		return 0, false
	}
	s.metrics.backendFailures.Add(1)
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		// The budget died inside the backend (deadline-context timeout or a
		// failure that arrived at the boundary): this is a 504, not a 502,
		// and retrying is pointless.
		j.outcome = outcomeExpired
		s.metrics.expired.Add(1)
		return 0, false
	}
	backoff := s.backoffFor(j)
	if s.retryable(j, backoff) {
		j.attempt++
		s.metrics.retries.Add(1)
		return backoff, true
	}
	// Out of budget, attempts, or idempotency: render the failure.
	if errors.Is(err, ErrNoBackend) {
		j.status = http.StatusServiceUnavailable
		j.body = "no backend available\n"
	} else {
		j.status = http.StatusBadGateway
		j.body = fmt.Sprintf("backend failure after %d attempt(s): %v\n", j.attempt+1, err)
	}
	j.outcome = outcomeServed
	return 0, false
}

// callBackend runs the backend, recovering a panic into a fault that
// carries the panic value and the stack captured during unwinding (it
// includes the panicking frames). The fault has the runtime's error shape:
// a *prometheus.Error of kind ErrPanic wrapping a *prometheus.PanicError.
func (s *Server) callBackend(ctx context.Context, j *job) (status int, body string, err, fault error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &prometheus.PanicError{Set: j.set, Epoch: j.poison.epoch, Value: v, Stack: debug.Stack()}
			fault = &prometheus.Error{Kind: prometheus.ErrPanic, Msg: pe.Error(), Err: pe}
		}
	}()
	status, body, err = s.cfg.Backend.Serve(ctx, j.sess, j.r)
	return status, body, err, nil
}

// rotate closes the epoch and opens the next: an empty poison table lets
// faulted keys serve again, the slow-key watchdog heals, the rate limiter
// evicts idle buckets, and durable sessions take their capture. Nothing
// here waits for a running request. Router only.
func (s *Server) rotate() {
	s.poison.Store(&poisonTable{epoch: s.epochs.Add(1)})
	if s.slow != nil {
		s.slow.heal()
	}
	if s.limiter != nil {
		s.metrics.bucketsEvicted.Add(uint64(s.limiter.sweep(time.Now())))
	}
	s.rotateDurable()
}

// drainRouter is the router's shutdown path: keep delivering and rotating
// until every admitted request is answered (admission is already closed,
// so inflight only shrinks), then persist the quiescent table. The
// admission handshake makes the inflight wait sound: a handler that passed
// the draining check raised the inflight counter BEFORE loading the flag
// (sequentially-consistent order: its Add precedes its false Load, which
// precedes Drain's Store, which precedes every Load below), so no request
// can slip in behind an observed zero. A request in a retry backoff counts
// as inflight, so its re-entry is still delivered. If stragglers outlast
// Config.DrainTimeout their count is logged and the wait CONTINUES:
// abandoning it would drop accepted requests, the one thing drain exists
// to prevent. A handler that never returns therefore wedges the drain; the
// straggler report is the diagnosis.
func (s *Server) drainRouter() {
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	warned := false
	tick := time.NewTicker(s.cfg.EpochInterval)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		if !warned && time.Now().After(deadline) {
			warned = true
			s.cfg.Logf("serve: drain timeout: %d requests still inflight", s.inflight.Load())
		}
		select {
		case j := <-s.jobs:
			s.deliver(j)
		case <-tick.C:
			s.rotate()
		case <-time.After(time.Millisecond):
		}
	}
	// Every request has returned, so no session is being mutated: persist
	// the table synchronously — a clean drain is lossless under every
	// fsync policy.
	s.drainDurable()
}

// Drain gracefully stops the server: admission closes (new requests get
// 503), every admitted request is answered, and durable sessions commit a
// final snapshot. Call after the HTTP listener has stopped accepting new
// connections. It returns an error only when the server was already
// drained.
func (s *Server) Drain() error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("serve: server already drained")
	}
	ack := make(chan struct{})
	s.drainCh <- ack
	<-ack
	<-s.routerWG
	return nil
}

// Stats is the serving tier's own account of its run.
type Stats struct {
	Epochs  uint64 // epochs begun: 1 at New, one more per rotation
	Panics  uint64 // handler panics recovered (each poisons its key for the epoch)
	Dropped uint64 // requests resolved dropped on a poisoned key
}

// Stats returns the live counters. Safe from any goroutine.
func (s *Server) Stats() Stats {
	return Stats{
		Epochs:  s.epochs.Load(),
		Panics:  s.metrics.panics.Load(),
		Dropped: s.metrics.droppedJobs.Load(),
	}
}
