package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/serve"
)

// reqIDHeader carries the benchmark's request id, so spans recorded at
// different layers of one request can be joined.
const reqIDHeader = "X-Bench-Req"

func reqID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
	return id
}

// spanLog records one duration per request id. Safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	spans map[uint64]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{spans: map[uint64]time.Duration{}} }

func (l *spanLog) add(id uint64, d time.Duration) {
	l.mu.Lock()
	l.spans[id] = d
	l.mu.Unlock()
}

func (l *spanLog) get(id uint64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.spans[id]
	return d, ok
}

// timedHandler times Server.Handler(): admission, router channel,
// delegate queue, rotation wait and backend, as seen by the HTTP layer.
type timedHandler struct {
	inner http.Handler
	log   *spanLog
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	h.log.add(reqID(r), time.Since(start))
}

// timedBackend times serve.Backend calls and passes their results and
// errors through unchanged.
type timedBackend struct {
	inner serve.Backend
	log   *spanLog
}

func (b timedBackend) Name() string { return b.inner.Name() }

func (b timedBackend) Serve(ctx context.Context, s *serve.Session, r *http.Request) (int, string, error) {
	start := time.Now()
	status, body, err := b.inner.Serve(ctx, s, r)
	b.log.add(reqID(r), time.Since(start))
	return status, body, err
}

// fsStats is what timedFS observed.
type fsStats struct {
	appends   samples // journal writes, µs
	syncs     samples // File.Sync of any file, ms
	snapshots samples // snapshot Create to commit Rename, ms
	snapBytes samples // bytes written per committed snapshot
}

// timedFS times a durable.FS from outside: journal writes, file syncs and
// each snapshot generation from its Create to its commit Rename. Results
// and errors pass through unchanged.
type timedFS struct {
	inner durable.FS
	mu    sync.Mutex
	st    fsStats
	open  map[string]*timedFile // snapshot temp files not yet renamed
}

func newTimedFS(inner durable.FS) *timedFS {
	return &timedFS{inner: inner, open: map[string]*timedFile{}}
}

func (t *timedFS) stats() fsStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fsStats{
		appends:   append(samples(nil), t.st.appends...),
		syncs:     append(samples(nil), t.st.syncs...),
		snapshots: append(samples(nil), t.st.snapshots...),
		snapBytes: append(samples(nil), t.st.snapBytes...),
	}
}

func (t *timedFS) Create(name string) (durable.File, error) {
	f, err := t.inner.Create(name)
	if err != nil {
		return f, err
	}
	tf := &timedFile{inner: f, fs: t, created: time.Now()}
	t.mu.Lock()
	t.open[name] = tf
	t.mu.Unlock()
	return tf, nil
}

func (t *timedFS) Append(name string) (durable.File, error) {
	f, err := t.inner.Append(name)
	if err != nil {
		return f, err
	}
	return &timedFile{inner: f, fs: t, journal: strings.HasPrefix(name, "wal-")}, nil
}

func (t *timedFS) Rename(oldname, newname string) error {
	err := t.inner.Rename(oldname, newname)
	t.mu.Lock()
	defer t.mu.Unlock()
	if tf, ok := t.open[oldname]; ok {
		delete(t.open, oldname)
		if err == nil {
			t.st.snapshots.addDur(time.Since(tf.created), time.Millisecond)
			t.st.snapBytes.add(float64(tf.written))
		}
	}
	return err
}

func (t *timedFS) Remove(name string) error {
	t.mu.Lock()
	delete(t.open, name)
	t.mu.Unlock()
	return t.inner.Remove(name)
}

func (t *timedFS) Open(name string) (io.ReadCloser, error) { return t.inner.Open(name) }

func (t *timedFS) List() ([]string, error) { return t.inner.List() }

// timedFile times writes to a journal and syncs of any file.
type timedFile struct {
	inner   durable.File
	fs      *timedFS
	journal bool
	created time.Time
	written int64 // writes to one file are serialized by its writer
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.inner.Write(p)
	d := time.Since(start)
	f.written += int64(n)
	if f.journal {
		f.fs.mu.Lock()
		f.fs.st.appends.addDur(d, time.Microsecond)
		f.fs.mu.Unlock()
	}
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.inner.Sync()
	d := time.Since(start)
	f.fs.mu.Lock()
	f.fs.st.syncs.addDur(d, time.Millisecond)
	f.fs.mu.Unlock()
	return err
}

func (f *timedFile) Close() error { return f.inner.Close() }
