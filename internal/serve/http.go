package serve

import (
	"fmt"
	"net/http"
	"time"

	prometheus "repro"
)

// Handler returns the server's HTTP surface: every path serves requests
// through the session-affinity router except /metrics (Prometheus text
// exposition) and /healthz (503 while draining, 200 otherwise).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/", s)
	return mux
}

// handleHealthz reports readiness plus the degradation detail an
// orchestrator needs to distinguish "draining" (remove from rotation,
// instance is going away) from "degraded" (keep routing, but some keys or
// backends are impaired): the currently-poisoned key count, the
// gated-backend count, and the watchdog-degraded key count, all in the
// body of both the 200 and the 503.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	gated := 0
	if sp, ok := s.cfg.Backend.(statesProvider); ok {
		for _, bs := range sp.States() {
			if bs.Gated {
				gated++
			}
		}
	}
	degraded := 0
	if s.slow != nil {
		degraded = s.slow.degradedCount()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintf(w, "%s\npoisoned_keys %d\ngated_backends %d\ndegraded_keys %d\n",
		state, s.poison.Load().n.Load(), gated, degraded)
	if s.store != nil {
		// Durability detail: what the last startup rebuilt (and had to
		// discard), so an operator — or the crash-restart harness — can
		// tell a clean recovery from a truncated one without scraping.
		fmt.Fprintf(w, "recovered_sessions %d\njournal_truncated_records %d\n",
			s.recovered.sessions, s.recovered.truncatedRecords)
	}
}

// ServeHTTP is the request path: admission gates on the handler
// goroutine (cheap rejects that never touch the router), then one bounded
// channel send, the router's grant, and the request's own turn on its key
// (see await). The gates run in rejection-cost order — inflight budget,
// token bucket, poison check — so overload is repelled before per-key
// state is consulted.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Admission handshake: raise inflight BEFORE loading the draining
	// flag, mirroring drainRouter's store-then-wait (see its comment for
	// the ordering argument). Every exit path decrements.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.draining.Load() {
		s.metrics.admissionRejects.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.inflight.Load() > int64(s.cfg.MaxInflight) {
		s.metrics.admissionRejects.Add(1)
		http.Error(w, "over capacity", http.StatusServiceUnavailable)
		return
	}

	key := s.cfg.KeyFunc(r)
	set := prometheus.StringSet(key)

	if s.limiter != nil && !s.limiter.allow(set) {
		s.metrics.rateRejects.Add(1)
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}

	if fault := s.poison.Load().fault(set); fault != nil {
		// Fast path: the key faulted earlier this epoch. Fail with the
		// fault attached, without a round trip through the router.
		s.metrics.poisonRejects.Add(1)
		s.failPoisoned(w, key, fault)
		return
	}

	j := &job{key: key, set: set, r: r, grant: make(chan struct{}, 1), start: time.Now()}
	if s.cfg.RequestTimeout > 0 {
		// The request's budget is fixed here, at admission: every queue it
		// waits in, every backend attempt, and every retry backoff spends
		// from this one allowance.
		j.deadline = j.start.Add(s.cfg.RequestTimeout)
	}
	s.metrics.depth.Observe(int64(len(s.jobs)))
	select {
	case s.jobs <- j:
	default:
		// Backpressure: the router is behind. Reject rather than buffer
		// without bound.
		s.metrics.admissionRejects.Add(1)
		http.Error(w, "queue full", http.StatusServiceUnavailable)
		return
	}
	s.await(j)

	lat := time.Since(j.start)
	s.metrics.observe(set, lat)
	switch j.outcome {
	case outcomeServed:
		s.metrics.served.Add(1)
		w.WriteHeader(j.status)
		fmt.Fprint(w, j.body)
	case outcomeFaulted:
		// This request's own backend call panicked.
		s.metrics.faultResponses.Add(1)
		s.failFaulted(w, key, j.fault)
	case outcomeExpired:
		// The request's budget ran out before a backend could answer — at
		// delivery, while it waited for its key's turn, or inside a
		// deadline-honoring backend. Definitive: the job resolved without
		// a backend answer and never runs again.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprintf(w, "request for key %q exceeded its %v budget\n", key, s.cfg.RequestTimeout)
	case outcomeShed:
		// The slow-key watchdog degraded this key: shedding beats queueing
		// a request behind work that would blow its budget anyway.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "key %q degraded: persistently slow; shed until the next epoch rotation\n", key)
	default: // outcomeDropped
		// The key was poisoned before this request could run (at delivery,
		// or by a request ahead of it in the key's turn chain).
		s.metrics.faultResponses.Add(1)
		s.failPoisoned(w, key, j.fault)
	}
}

// failPoisoned writes the 500 for a request rejected or dropped because
// its key is poisoned, attaching the fault that poisoned it.
func (s *Server) failPoisoned(w http.ResponseWriter, key string, fault error) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusInternalServerError)
	fmt.Fprintf(w, "key %q is poisoned for the current epoch; request dropped\n", key)
	fmt.Fprintf(w, "fault: %v\n", fault)
}

// failFaulted writes the 500 for the request whose own backend call
// panicked, attaching the recovered fault.
func (s *Server) failFaulted(w http.ResponseWriter, key string, fault error) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusInternalServerError)
	fmt.Fprintf(w, "request for key %q panicked; key poisoned for the current epoch\n", key)
	fmt.Fprintf(w, "fault: %v\n", fault)
}
