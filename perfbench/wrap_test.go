package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/durable"
	"repro/internal/serve"
)

type fakeBackend struct {
	status int
	body   string
	err    error
}

func (f fakeBackend) Name() string { return "fake" }

func (f fakeBackend) Serve(context.Context, *serve.Session, *http.Request) (int, string, error) {
	return f.status, f.body, f.err
}

func TestTimedBackendPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	for _, inner := range []fakeBackend{{200, "ok", nil}, {502, "bad", boom}} {
		log := newSpanLog()
		b := timedBackend{inner: inner, log: log}
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.Header.Set(reqIDHeader, "17")
		status, body, err := b.Serve(context.Background(), &serve.Session{}, r)
		if status != inner.status || body != inner.body || err != inner.err {
			t.Errorf("got (%d, %q, %v), want (%d, %q, %v)", status, body, err, inner.status, inner.body, inner.err)
		}
		if b.Name() != "fake" {
			t.Errorf("name %q", b.Name())
		}
		if _, ok := log.get(17); !ok {
			t.Error("no span recorded for request 17")
		}
	}
}

func TestTimedHandlerPassesThrough(t *testing.T) {
	log := newSpanLog()
	h := timedHandler{log: log, inner: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "body")
	})}
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.Header.Set(reqIDHeader, "3")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusTeapot || w.Body.String() != "body" {
		t.Errorf("got %d %q", w.Code, w.Body.String())
	}
	if _, ok := log.get(3); !ok {
		t.Error("no span recorded")
	}
}

// failFS fails every operation with errFS.
type failFS struct{}

var errFS = errors.New("injected fs failure")

func (failFS) Create(string) (durable.File, error) { return nil, errFS }
func (failFS) Append(string) (durable.File, error) { return nil, errFS }
func (failFS) Open(string) (io.ReadCloser, error)  { return nil, errFS }
func (failFS) Rename(string, string) error         { return errFS }
func (failFS) Remove(string) error                 { return errFS }
func (failFS) List() ([]string, error)             { return nil, errFS }

func TestTimedFSPassesErrorsThrough(t *testing.T) {
	fs := newTimedFS(failFS{})
	if _, err := fs.Create("x"); err != errFS {
		t.Errorf("Create err = %v", err)
	}
	if _, err := fs.Append("wal-1"); err != errFS {
		t.Errorf("Append err = %v", err)
	}
	if _, err := fs.Open("x"); err != errFS {
		t.Errorf("Open err = %v", err)
	}
	if err := fs.Rename("a", "b"); err != errFS {
		t.Errorf("Rename err = %v", err)
	}
	if err := fs.Remove("a"); err != errFS {
		t.Errorf("Remove err = %v", err)
	}
	if _, err := fs.List(); err != errFS {
		t.Errorf("List err = %v", err)
	}
}

// The wrapped FS must behave exactly like the one it wraps: a store
// written through it recovers the same records, and its timers see the
// journal write, the syncs and the snapshot commit.
func TestTimedFSPassesResultsThrough(t *testing.T) {
	mem := durable.NewMemFS()
	fs := newTimedFS(mem)
	store := durable.NewStore(fs)
	info, err := store.CommitSnapshot(1, [][]byte{[]byte("a"), []byte("bc")})
	if err != nil {
		t.Fatal(err)
	}
	j, err := store.OpenJournal(1, durable.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := durable.NewStore(mem).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.SnapshotRecords) != 2 || len(rec.JournalRecords) != 1 || string(rec.JournalRecords[0]) != "rec" {
		t.Fatalf("recovered %d snapshot and %d journal records", len(rec.SnapshotRecords), len(rec.JournalRecords))
	}
	st := fs.stats()
	if len(st.snapshots) != 1 || st.snapBytes[0] != float64(info.Bytes) {
		t.Errorf("snapshot spans %v bytes %v, want one of %d bytes", st.snapshots, st.snapBytes, info.Bytes)
	}
	if len(st.appends) == 0 || len(st.syncs) < 2 {
		t.Errorf("journal writes %d, syncs %d", len(st.appends), len(st.syncs))
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mem.List()
	if len(names) != len(want) {
		t.Errorf("List = %v, want %v", names, want)
	}
}
